// Ablation D1 (DESIGN.md §5): arms = mutation counts vs arms = individual
// mutations.
//
// MWRepair's bandit has one arm per candidate combination *size*; the naive
// encoding — one arm per pooled mutation — blows the option set up to the
// pool size, destroying convergence within any realistic probe budget and
// discarding the efficiency of testing many mutations per suite run.  This
// bench runs both encodings on the same scenario with the same probe
// budget and reports repairs found and MWU convergence.
#include <iostream>

#include "apr/mwrepair.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

// The naive encoding: each arm is one pooled mutation; a probe applies just
// that mutation and rewards fitness non-decrease.  Repair only happens if a
// single mutation fixes the bug, and learning must resolve pool-size arms.
mwr::apr::RepairOutcome run_naive_encoding(const mwr::apr::TestOracle& oracle,
                                           const mwr::apr::MutationPool& pool,
                                           std::size_t agents,
                                           std::size_t max_iterations,
                                           std::uint64_t seed) {
  using namespace mwr;
  core::MwuConfig config;
  config.num_options = pool.size();
  config.num_agents = agents;
  config.max_iterations = max_iterations;
  const auto strategy = core::make_mwu(core::MwuKind::kStandard, config);
  util::RngStream rng(seed);
  const std::uint32_t baseline = oracle.baseline_fitness();

  apr::RepairOutcome outcome;
  std::vector<double> rewards;
  for (std::size_t t = 0; t < max_iterations; ++t) {
    const auto probes = strategy->sample(rng);
    rewards.assign(probes.size(), 0.0);
    for (std::size_t j = 0; j < probes.size(); ++j) {
      const apr::Mutation m = pool.mutations()[probes[j]];
      const apr::Patch patch{m};
      const auto e = oracle.evaluate(patch);
      ++outcome.probes;
      if (e.is_repair()) {
        outcome.repaired = true;
        outcome.patch = patch;
        outcome.iterations = t + 1;
        return outcome;
      }
      rewards[j] = e.fitness() >= baseline ? 1.0 : 0.0;
    }
    strategy->update(probes, rewards, rng);
    ++outcome.iterations;
  }
  return outcome;
}

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_ablation_arm_encoding — D1: count-arms vs "
                "one-arm-per-mutation");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  util::Table table("Ablation D1: bandit arm encoding (same probe budget)");
  table.set_header({"Scenario", "Encoding", "k (arms)", "Repaired", "Probes",
                    "Cycles"});

  for (const auto& name : {"gzip-2009-08-16", "libtiff-2005-12-14",
                           "Closure13"}) {
    const auto spec = datasets::scenario_by_name(name);
    const apr::ProgramModel program(spec);
    const apr::TestOracle oracle(program);
    apr::PoolConfig pool_config;
    pool_config.target_size = 2000;
    pool_config.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
    const auto pool = apr::MutationPool::precompute(oracle, pool_config);

    apr::MwRepairConfig config;
    config.agents = 16;
    config.max_iterations = 150;
    config.seed = pool_config.seed ^ 1;
    const apr::MwRepair repair(config);
    const auto counts = repair.run(oracle, pool);
    table.add_row({name, "counts (MWRepair)", std::to_string(config.arms),
                   counts.repaired ? "yes" : "no",
                   std::to_string(counts.probes),
                   std::to_string(counts.iterations)});

    const auto naive = run_naive_encoding(oracle, pool, config.agents,
                                          config.max_iterations,
                                          config.seed ^ 2);
    table.add_row({name, "one arm per mutation", std::to_string(pool.size()),
                   naive.repaired ? "yes" : "no", std::to_string(naive.probes),
                   std::to_string(naive.iterations)});
    table.add_separator();
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_ablation_arm_encoding", run, argc,
                                  argv);
}
