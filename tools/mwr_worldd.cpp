// mwr_worldd — multi-process Distributed MWU world launcher.
//
// Forks N worker processes over the socketpair fabric and runs the
// Distributed MWU driver at population scales the CI machines cannot reach
// with OS threads (2^15 ranks and beyond: fibers inside each process,
// processes across the fabric).  The trajectory is bit-identical to the
// in-process reference at any process count, so this binary doubles as the
// congestion-bound validator: --check-congestion compares the measured
// per-cycle maximum load against the balls-into-bins O(ln n / ln ln n)
// bound (paper Table I) and exits nonzero on a violation.
//
// --repair swaps the synthetic Bernoulli options for the APR probe
// semantics (apr/arm_oracle.hpp): arms are mutation-combination sizes and
// each probe simulates one test-suite run against a precomputed
// safe-mutation pool — the repair search, distributed across processes.
//
// Exit codes: 0 success, 1 launch/worker failure or a failed --metrics-out
// write, 2 congestion-bound violation.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <utility>
#include <vector>

#include "apr/arm_oracle.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/program.hpp"
#include "apr/test_oracle.hpp"
#include "core/option_set.hpp"
#include "core/parallel_driver.hpp"
#include "datasets/scenario.hpp"
#include "obs/registry.hpp"
#include "parallel/congestion.hpp"
#include "util/cli.hpp"

namespace {

// The measured per-cycle max is the balls-into-bins maximum over ~n
// requests into n bins; a generous constant keeps the gate meaningful
// (catching O(n)-style hotspots) without flaking on finite-n noise.
constexpr double kCongestionSlack = 4.0;

int run(int argc, char** argv) {
  using namespace mwr;

  util::Cli cli("mwr_worldd: multi-process Distributed MWU world launcher");
  cli.add_int("ranks", 1 << 15, "global ranks (population size)");
  cli.add_int("processes", 2, "worker processes to fork");
  cli.add_int("options", 8, "options k (synthetic mode) / bandit arms cap");
  cli.add_int("max-iterations", 8, "MWU update cycles to run");
  cli.add_double("plurality", 0.95, "plurality stop threshold");
  cli.add_int("seed", 7, "master seed");
  cli.add_double("timeout", 600.0, "launcher watchdog seconds");
  cli.add_string("metrics-out", "", "write a JSON run/metrics snapshot here");
  cli.add_flag("check-congestion",
               "fail (exit 2) unless the mean per-cycle max load is within "
               "the balls-into-bins bound");
  cli.add_flag("repair",
               "APR mode: arms are mutation-combination sizes probed "
               "against a precomputed safe-mutation pool");
  if (!cli.parse(argc, argv)) return 0;

  const auto ranks = static_cast<std::size_t>(cli.get_int("ranks"));
  const auto processes = static_cast<std::size_t>(cli.get_int("processes"));
  const auto options = static_cast<std::size_t>(cli.get_int("options"));

  core::MultiprocessOptions mp;
  mp.processes = processes;
  mp.timeout_seconds = cli.get_double("timeout");

  core::MwuConfig config;
  config.num_options = options;
  config.max_iterations =
      static_cast<std::size_t>(cli.get_int("max-iterations"));
  config.plurality_threshold = cli.get_double("plurality");
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  core::ParallelMwuResult result;
  std::uint64_t suite_runs = 0;
  if (cli.get_flag("repair")) {
    datasets::ScenarioSpec spec;
    spec.name = "worldd-repair";
    spec.language = "C";
    spec.options = options;
    spec.seed = seed;
    const apr::ProgramModel program(spec);
    const apr::TestOracle oracle(program);
    apr::PoolConfig pool_config;
    pool_config.target_size = 200;
    pool_config.seed = seed;
    const auto pool = apr::MutationPool::precompute(oracle, pool_config);
    apr::MwRepairConfig repair_config;
    repair_config.arms = options;
    repair_config.max_count = std::max<std::size_t>(options, 64);
    repair_config.seed = seed;
    // Priming happens here, pre-fork: workers inherit the oracle's probe
    // wave through copy-on-write instead of re-deriving semantics.
    const apr::ArmProbeOracle arm_oracle(oracle, pool, repair_config);
    config.num_options = arm_oracle.num_options();
    result = core::run_distributed_spmd_multiprocess(arm_oracle, config, seed,
                                                     ranks, mp);
    suite_runs = result.result.evaluations;
  } else {
    // Synthetic mode: one clearly-best option among near ties, so short
    // runs still exercise adoption dynamics without instant convergence.
    std::vector<double> values(options, 0.45);
    if (options > 1) values[options / 2] = 0.6;
    const core::OptionSet option_set("worldd", values);
    const core::BernoulliOracle oracle(option_set);
    result = core::run_distributed_spmd_multiprocess(oracle, config, seed,
                                                     ranks, mp);
  }

  const double bound = parallel::balls_into_bins_bound(ranks);
  const auto& congestion = result.max_congestion_per_cycle;
  std::printf("mwr_worldd: ranks=%zu processes=%zu options=%zu\n", ranks,
              processes, config.num_options);
  std::printf("  cycles=%zu converged=%d best=%zu evaluations=%llu\n",
              result.result.iterations,
              static_cast<int>(result.result.converged),
              result.result.best_option,
              static_cast<unsigned long long>(result.result.evaluations));
  std::printf("  tracked messages=%llu trajectory_hash=%.0f\n",
              static_cast<unsigned long long>(result.total_messages),
              result.trajectory_hash);
  std::printf(
      "  congestion per cycle: mean=%.3f max=%.0f cycles=%zu "
      "(ln n / ln ln n bound=%.3f)\n",
      congestion.mean(), congestion.max(), congestion.count(), bound);
  if (suite_runs != 0)
    std::printf("  suite runs (repair probes)=%llu\n",
                static_cast<unsigned long long>(suite_runs));

  if (!cli.get_string("metrics-out").empty()) {
    // Run summary first (the fields CI greps), then the parent process's
    // metrics registry snapshot.  The hash is a sum of 32-bit values, an
    // integer-valued double, so it is written as the exact integer stdout
    // prints.
    obs::JsonValue run_doc = obs::JsonValue::object();
    run_doc.set("ranks", ranks);
    run_doc.set("processes", processes);
    run_doc.set("cycles", result.result.iterations);
    run_doc.set("converged", result.result.converged);
    run_doc.set("tracked_messages", result.total_messages);
    run_doc.set("trajectory_hash", result.trajectory_hash);
    run_doc.set("congestion_mean", congestion.mean());
    run_doc.set("congestion_max", congestion.max());
    run_doc.set("balls_into_bins_bound", bound);
    obs::JsonValue doc = obs::JsonValue::object();
    doc.set("run", std::move(run_doc));
    doc.set("launcher_metrics", obs::MetricsRegistry::global().to_json());
    obs::write_json_file(doc, cli.get_string("metrics-out"));
  }

  if (cli.get_flag("check-congestion")) {
    if (congestion.count() == 0 ||
        congestion.mean() > kCongestionSlack * bound) {
      std::printf(
          "mwr_worldd: CONGESTION VIOLATION: mean %.3f exceeds %.1f x "
          "bound %.3f\n",
          congestion.mean(), kCongestionSlack, bound);
      return 2;
    }
    std::printf("mwr_worldd: congestion within %.1f x bound\n",
                kCongestionSlack);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "mwr_worldd: %s\n", e.what());
    return 1;
  }
}
