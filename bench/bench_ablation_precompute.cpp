// Ablation D2 (DESIGN.md §5): precomputed safe-mutation pool vs on-the-fly
// safe-mutation discovery inside the synchronized loop.
//
// The paper's §III-C argument: when each of n threads must *find* its own
// x_j safe mutations before the end-of-cycle barrier, every cycle waits for
// the slowest thread — the maximum order statistic — so with 64 threads
// drawing targets from 1..100 almost every cycle pays near-worst-decile
// cost, roughly halving efficiency; duplicates are also re-tested.  With a
// precomputed pool each probe costs exactly one suite run regardless of x.
//
// We measure both modes on the same scenario: suite runs consumed per probe
// and the modeled synchronized-cycle cost (max across threads).
#include <algorithm>
#include <iostream>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_ablation_precompute — D2: pool precompute vs "
                "on-the-fly safe-mutation discovery");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("cycles", 40, "synchronized cycles to simulate");
  cli.add_int("agents", 64, "threads per cycle");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto spec = datasets::scenario_by_name("gzip-2009-08-16");
  const apr::ProgramModel program(spec);
  const auto cycles = static_cast<std::size_t>(cli.get_int("cycles"));
  const auto agents = static_cast<std::size_t>(cli.get_int("agents"));
  const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  util::RngStream rng(seed);

  // Each cycle, every agent needs x_j safe mutations, x_j uniform on
  // [1, 100] (the paper's example), then runs one combined-suite probe.
  const auto draw_target = [&] {
    return 1 + static_cast<std::size_t>(rng.uniform_index(100));
  };

  // --- With precompute: pool filled once; per-cycle critical path = 1
  // combined probe (drawing from the pool is free).
  const apr::TestOracle pooled_oracle(program);
  apr::PoolConfig pool_config;
  pool_config.target_size = 2000;
  pool_config.seed = seed;
  const auto pool = apr::MutationPool::precompute(pooled_oracle, pool_config);
  const std::uint64_t precompute_runs = pooled_oracle.suite_runs();
  // Phase-2 probes re-draw from the pool: evaluate them through the wave.
  pooled_oracle.prime_wave(pool.mutations());
  std::uint64_t pooled_probe_runs = 0;
  util::RunningStats pooled_critical_path;
  for (std::size_t c = 0; c < cycles; ++c) {
    for (std::size_t a = 0; a < agents; ++a) {
      const auto patch =
          apr::sample_from_pool(pool.mutations(), draw_target(), rng);
      (void)pooled_oracle.evaluate(patch);
      ++pooled_probe_runs;
    }
    pooled_critical_path.add(1.0);  // all agents: exactly one suite run
  }

  // --- Without precompute: each agent validates candidates one by one
  // until it has x_j safe ones (expected x_j / safe_rate suite runs), then
  // probes; the cycle's critical path is the slowest agent.
  const apr::TestOracle otf_oracle(program);
  std::uint64_t otf_runs = 0;
  util::RunningStats otf_critical_path;
  for (std::size_t c = 0; c < cycles; ++c) {
    std::uint64_t slowest = 0;
    for (std::size_t a = 0; a < agents; ++a) {
      const std::size_t target = draw_target();
      apr::Patch safe;
      std::uint64_t agent_runs = 0;
      while (safe.size() < target) {
        const apr::Mutation m = apr::random_mutation(program, rng);
        const apr::Patch single{m};
        const auto e = otf_oracle.evaluate(single);
        ++agent_runs;
        if (e.required_passed == e.required_total) safe.push_back(m);
      }
      (void)otf_oracle.evaluate(safe);
      ++agent_runs;
      otf_runs += agent_runs;
      slowest = std::max(slowest, agent_runs);
    }
    otf_critical_path.add(static_cast<double>(slowest));
  }

  util::Table table("Ablation D2: precompute vs on-the-fly (gzip, " +
                    std::to_string(agents) + " threads, " +
                    std::to_string(cycles) + " cycles)");
  table.set_header({"Mode", "Suite runs", "of which one-time precompute",
                    "critical path / cycle (mean)",
                    "critical path / cycle (max)"});
  table.add_row({"precomputed pool",
                 std::to_string(precompute_runs + pooled_probe_runs),
                 std::to_string(precompute_runs),
                 util::fmt_fixed(pooled_critical_path.mean(), 1),
                 util::fmt_fixed(pooled_critical_path.max(), 0)});
  table.add_row({"on-the-fly discovery", std::to_string(otf_runs), "0",
                 util::fmt_fixed(otf_critical_path.mean(), 1),
                 util::fmt_fixed(otf_critical_path.max(), 0)});
  table.emit(std::cout, cli.get_string("csv"));

  // The paper's ~2x claim is the *synchronization* penalty of on-the-fly
  // discovery: the barrier makes every agent wait for the slowest one, so
  // the cycle costs the max over agents instead of the mean.
  const double otf_mean_agent_work =
      static_cast<double>(otf_runs) /
      static_cast<double>(cycles * agents);
  std::cout << "on-the-fly synchronization penalty (critical path / mean "
               "agent work): "
            << util::fmt_fixed(otf_critical_path.mean() / otf_mean_agent_work,
                               1)
            << "x (paper: ~2x at 64 threads)\n"
            << "pooled critical path vs on-the-fly critical path: "
            << util::fmt_fixed(
                   otf_critical_path.mean() / pooled_critical_path.mean(), 1)
            << "x fewer synchronized suite runs per cycle\n"
            << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_ablation_precompute", run, argc, argv);
}
