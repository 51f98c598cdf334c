// Unit tests for the baselines: GenProg's genetic policy, RSRepair's random
// search, and AE's pruned deterministic enumeration.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "baselines/ae.hpp"
#include "baselines/genprog.hpp"
#include "baselines/rsrepair.hpp"

namespace mwr::baselines {
namespace {

datasets::ScenarioSpec easy_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "easy";
  spec.statements = 2000;
  spec.tests = 15;
  spec.coverage = 0.7;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.05;  // dense repairs: all tools should succeed
  spec.optimum = 30;
  spec.min_repair_edits = 1;
  spec.seed = 61;
  return spec;
}

datasets::ScenarioSpec multi_edit_spec() {
  auto spec = easy_spec();
  spec.name = "multi";
  spec.min_repair_edits = 2;
  spec.repair_rate = 0.01;
  spec.seed = 62;
  return spec;
}

TEST(GenProg, RepairsADenseScenario) {
  const apr::ProgramModel program(easy_spec());
  const apr::TestOracle oracle(program);
  GenProgConfig config;
  config.seed = 1;
  const auto outcome = run_genprog(oracle, config);
  ASSERT_TRUE(outcome.repaired);
  EXPECT_TRUE(oracle.evaluate(outcome.patch).is_repair());
  EXPECT_GT(outcome.suite_runs, 0u);
  EXPECT_DOUBLE_EQ(outcome.latency_units,
                   static_cast<double>(outcome.suite_runs));
}

TEST(GenProg, RespectsTheSuiteRunBudget) {
  auto spec = easy_spec();
  spec.min_repair_edits = 100000;  // unrepairable
  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);
  GenProgConfig config;
  config.max_suite_runs = 777;
  config.seed = 2;
  const auto outcome = run_genprog(oracle, config);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_LE(outcome.suite_runs, 777u + config.population);
}

TEST(GenProg, DeterministicPerSeed) {
  const apr::ProgramModel program(easy_spec());
  const apr::TestOracle oracle_a(program);
  const apr::TestOracle oracle_b(program);
  GenProgConfig config;
  config.seed = 3;
  const auto a = run_genprog(oracle_a, config);
  const auto b = run_genprog(oracle_b, config);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.suite_runs, b.suite_runs);
}

// Pins one fixed-seed search end to end.  GenProg's crossover draws two
// tournament parents from one stream, so this catches any change to the
// order of draws, including one that only a different compiler makes.
TEST(GenProg, FixedSeedSearchIsPinned) {
  const apr::ProgramModel program(multi_edit_spec());
  const apr::TestOracle oracle(program);
  GenProgConfig config;
  config.max_suite_runs = 30000;
  config.max_generations = 800;
  config.seed = 6;
  const auto outcome = run_genprog(oracle, config);
  EXPECT_TRUE(outcome.repaired);
  EXPECT_EQ(outcome.suite_runs, 1326u);
  std::vector<std::uint64_t> keys;
  for (const auto& mutation : outcome.patch) keys.push_back(mutation.key());
  const std::vector<std::uint64_t> expected = {
      0x21e80000000ull,        0x27080000000ull,
      0x28780000000ull,        0x400003ba800001aeull,
      0x80000048800000f3ull,   0x800000c780000661ull,
      0x8000018b80000434ull,   0x8000031a000007b4ull};
  EXPECT_EQ(keys, expected);
}

TEST(RsRepair, RepairsADenseScenario) {
  const apr::ProgramModel program(easy_spec());
  const apr::TestOracle oracle(program);
  RsRepairConfig config;
  config.seed = 4;
  const auto outcome = run_rsrepair(oracle, config);
  ASSERT_TRUE(outcome.repaired);
  EXPECT_TRUE(oracle.evaluate(outcome.patch).is_repair());
  EXPECT_LE(outcome.patch.size(), 2u);  // one- or two-edit trials only
}

TEST(RsRepair, ExhaustsBudgetOnUnrepairableScenario) {
  auto spec = easy_spec();
  spec.min_repair_edits = 100000;
  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);
  RsRepairConfig config;
  config.max_suite_runs = 300;
  config.seed = 5;
  const auto outcome = run_rsrepair(oracle, config);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_EQ(outcome.suite_runs, 300u);
}

TEST(Ae, RepairsADenseScenario) {
  const apr::ProgramModel program(easy_spec());
  const apr::TestOracle oracle(program);
  AeConfig config;
  const auto outcome = run_ae(oracle, config);
  ASSERT_TRUE(outcome.repaired);
  EXPECT_EQ(outcome.patch.size(), 1u);  // single-edit by construction
  EXPECT_TRUE(oracle.evaluate(outcome.patch).is_repair());
}

TEST(Ae, CannotRepairMultiEditDefects) {
  const apr::ProgramModel program(multi_edit_spec());
  const apr::TestOracle oracle(program);
  AeConfig config;
  config.max_suite_runs = 5000;
  const auto outcome = run_ae(oracle, config);
  EXPECT_FALSE(outcome.repaired);
}

TEST(Ae, PrunesEquivalentCandidates) {
  auto spec = easy_spec();
  spec.min_repair_edits = 100000;  // run the full enumeration window
  const apr::ProgramModel program(spec);
  const apr::TestOracle oracle(program);
  AeConfig config;
  config.max_suite_runs = 2000;
  const auto outcome = run_ae(oracle, config);
  EXPECT_GT(outcome.pruned, 0u);
  EXPECT_EQ(outcome.enumerated, outcome.pruned + outcome.suite_runs);
}

TEST(Ae, IsDeterministic) {
  const apr::ProgramModel program(easy_spec());
  const apr::TestOracle oracle_a(program);
  const apr::TestOracle oracle_b(program);
  AeConfig config;
  const auto a = run_ae(oracle_a, config);
  const auto b = run_ae(oracle_b, config);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.suite_runs, b.suite_runs);
  EXPECT_EQ(a.enumerated, b.enumerated);
}

TEST(GenProg, CanAssembleMultiEditRepairs) {
  // The evolutionary policy can stack edits across generations; random
  // single/double-edit search and AE cannot reach this defect at all.
  const apr::ProgramModel program(multi_edit_spec());
  const apr::TestOracle oracle(program);
  GenProgConfig config;
  config.max_suite_runs = 30000;
  config.max_generations = 800;
  config.seed = 6;
  const auto outcome = run_genprog(oracle, config);
  if (outcome.repaired) {
    EXPECT_GE(outcome.patch.size(), 2u);
    EXPECT_TRUE(oracle.evaluate(outcome.patch).is_repair());
  }
  // Repair is stochastic; the structural claim (>= 2 edits when repaired)
  // is what the encoding guarantees.
}

}  // namespace
}  // namespace mwr::baselines
