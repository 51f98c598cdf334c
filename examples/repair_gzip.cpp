// End-to-end MWRepair on the gzip-2009-08-16 scenario: the paper's running
// example (Fig 4a/4b, §III).
//
// Walks through both phases explicitly:
//   1. precompute — validate random statement mutations in parallel until a
//      pool of individually-safe mutations is banked;
//   2. online     — MWU (Standard backend) learns how many pooled mutations
//      to combine per probe, terminating at the first repair.
// Along the way it prints the empirical pass-rate curve the pool exhibits
// (Fig 4a) and where the bandit's preference sits relative to the
// calibrated repair-density optimum (Fig 4b).
//
// Build & run:  cmake --build build && ./build/examples/repair_gzip
#include <cstdio>

#include "apr/mwrepair.hpp"
#include "datasets/scenario.hpp"
#include "util/timer.hpp"

int main() {
  using namespace mwr;

  const auto spec = datasets::scenario_by_name("gzip-2009-08-16");
  std::printf("scenario: %s (%zu statements, %zu required tests, "
              "calibrated optimum %zu mutations)\n",
              spec.name.c_str(), spec.statements, spec.tests, spec.optimum);

  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);

  // --- Phase 1: precompute the safe-mutation pool (embarrassingly
  // parallel; a one-time cost amortized over every bug in this program).
  util::WallTimer timer;
  apr::PoolConfig pool_config;
  pool_config.target_size = 4000;
  pool_config.threads = 4;
  pool_config.seed = 2021;
  const auto pool = apr::MutationPool::precompute(oracle, pool_config);
  oracle.prime_cache(pool.mutations());
  std::printf("phase 1: %zu safe mutations from %llu candidates "
              "(%.2fs, %.0f%% yield)\n",
              pool.size(), static_cast<unsigned long long>(pool.attempts()),
              timer.elapsed_seconds(),
              100.0 * static_cast<double>(pool.size()) /
                  static_cast<double>(pool.attempts()));

  // A glimpse of Fig 4a: combined safe mutations still mostly pass.
  util::RngStream rng(7);
  for (const std::size_t x : {std::size_t{8}, std::size_t{48}, std::size_t{80}}) {
    int passed = 0;
    constexpr int kTrials = 200;
    for (int t = 0; t < kTrials; ++t) {
      const auto patch = apr::sample_from_pool(pool.mutations(), x, rng);
      const auto e = oracle.evaluate(patch);
      if (e.required_passed == e.required_total) ++passed;
    }
    std::printf("  %3zu combined safe mutations -> %3.0f%% of programs still "
                "pass the suite\n",
                x, 100.0 * passed / kTrials);
  }

  // --- Phase 2: the online MWU search (Fig 6).
  timer.restart();
  apr::MwRepairConfig config;
  config.mwu = core::MwuKind::kStandard;  // the paper's recommendation for APR
  config.agents = 64;
  config.max_iterations = 200;
  config.seed = 42;
  const apr::MwRepair repair(config);
  const auto outcome = repair.run(oracle, pool);

  if (outcome.repaired) {
    std::printf("phase 2: REPAIRED in %zu update cycle(s), %llu probes "
                "(%.2fs)\n",
                outcome.iterations,
                static_cast<unsigned long long>(outcome.probes),
                timer.elapsed_seconds());
    std::printf("  repairing patch combines %zu mutations (first three:",
                outcome.patch.size());
    for (std::size_t i = 0; i < outcome.patch.size() && i < 3; ++i) {
      const auto& m = outcome.patch[i];
      std::printf(" %s@%u", apr::to_string(m.kind).c_str(), m.target);
    }
    std::printf(" ...)\n");
    const auto check = oracle.evaluate(outcome.patch);
    std::printf("  verification: %u/%u required tests pass, bug test %s\n",
                check.required_passed, check.required_total,
                check.bug_test_passed ? "passes" : "FAILS");
  } else {
    std::printf("phase 2: no repair within %zu cycles; bandit preferred "
                "combining %zu mutations (calibrated optimum %zu)\n",
                outcome.iterations, outcome.preferred_count, spec.optimum);
  }
  std::printf("total suite runs (both phases): %llu\n",
              static_cast<unsigned long long>(oracle.suite_runs()));
  return outcome.repaired ? 0 : 1;
}
