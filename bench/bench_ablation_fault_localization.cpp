// Ablation D5: spectrum-based fault localization as a phase-1 front-end.
//
// The paper (like GenProg) restricts mutations to statements the suite
// executes but samples them uniformly.  When repair-relevant edits cluster
// in the failing test's region — the realistic case — Ochiai-weighted
// targeting concentrates the safe-mutation pool where repairs live, so the
// same pool size carries far more relevant mutations and the online phase
// repairs with fewer probes.
//
// Measured on localized-relevance variants of three scenarios: pool
// relevance density and end-to-end online probes, uniform vs FL-weighted
// candidate generation (identical pool sizes and budgets).
#include <iostream>
#include <unordered_set>

#include "apr/fault_localization.hpp"
#include "apr/mwrepair.hpp"
#include "bench_common.hpp"
#include "datasets/scenario.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

// A mutation pool built from FL-weighted candidates: same safety
// validation as MutationPool::precompute, with the Ochiai targeter as the
// candidate generator.
apr::MutationPool precompute_with_fl(const apr::TestOracle& oracle,
                                     const apr::MutationTargeter& targeter,
                                     std::size_t target_size,
                                     std::uint64_t seed) {
  util::RngStream rng(seed);
  std::unordered_set<std::uint64_t> seen;
  std::vector<apr::Mutation> safe;
  while (safe.size() < target_size) {
    const apr::Mutation m = targeter.sample(rng);
    if (!seen.insert(m.key()).second) continue;
    const apr::Patch single{m};
    const auto e = oracle.evaluate(single);
    if (e.required_passed == e.required_total) safe.push_back(m);
  }
  return apr::MutationPool::from_mutations(std::move(safe));
}

std::size_t relevant_in_pool(const apr::TestOracle& oracle,
                             const apr::MutationPool& pool) {
  std::size_t count = 0;
  for (const auto& m : pool.mutations()) {
    if (oracle.is_repair_relevant(m)) ++count;
  }
  return count;
}

int run(int argc, char** argv) {
  using namespace mwr;
  util::Cli cli("bench_ablation_fault_localization — D5: FL-weighted vs "
                "uniform mutation targeting");
  util::add_standard_bench_flags(cli);
  cli.add_int("pool", 2000, "safe-mutation pool size per mode");
  if (!cli.parse(argc, argv)) return 0;

  util::WallTimer timer;
  const auto pool_size = static_cast<std::size_t>(cli.get_int("pool"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  util::Table table("Ablation D5: fault localization (localized-relevance "
                    "scenario variants, pool " +
                    std::to_string(pool_size) + ")");
  table.set_header({"Scenario", "Targeting", "relevant in pool",
                    "repaired", "online probes"});

  for (const auto& name : {"units", "gzip-2009-09-26", "Math8"}) {
    auto spec = datasets::scenario_by_name(name);
    spec.relevance_localized = true;
    const apr::ProgramModel program(spec);

    // --- Uniform targeting (the paper's convention).
    {
      const apr::TestOracle oracle(program);
      apr::PoolConfig pool_config;
      pool_config.target_size = pool_size;
      pool_config.seed = seed;
      const auto pool = apr::MutationPool::precompute(oracle, pool_config);
      apr::MwRepairConfig repair_config;
      repair_config.agents = 32;
      repair_config.max_iterations = 300;
      repair_config.seed = seed ^ 5;
      const apr::MwRepair repair(repair_config);
      const auto outcome = repair.run(oracle, pool);
      table.add_row({name, "uniform over covered",
                     std::to_string(relevant_in_pool(oracle, pool)),
                     outcome.repaired ? "yes" : "no",
                     std::to_string(outcome.probes)});
    }

    // --- FL-weighted targeting.
    {
      const apr::TestOracle oracle(program);
      const apr::CoverageSpectrum spectrum(program);
      const apr::MutationTargeter targeter(spectrum);
      const auto pool =
          precompute_with_fl(oracle, targeter, pool_size, seed);
      apr::MwRepairConfig repair_config;
      repair_config.agents = 32;
      repair_config.max_iterations = 300;
      repair_config.seed = seed ^ 5;
      const apr::MwRepair repair(repair_config);
      const auto outcome = repair.run(oracle, pool);
      table.add_row({name, "Ochiai-weighted (FL)",
                     std::to_string(relevant_in_pool(oracle, pool)),
                     outcome.repaired ? "yes" : "no",
                     std::to_string(outcome.probes)});
    }
    table.add_separator();
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "(" << timer.elapsed_seconds() << "s)\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_ablation_fault_localization", run,
                                  argc, argv);
}
