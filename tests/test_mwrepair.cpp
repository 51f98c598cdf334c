// Unit + integration tests for apr/mwrepair: the arm grid, the Fig 6 loop,
// early termination, reward modes, and the end-to-end pipeline.
#include <gtest/gtest.h>

#include "apr/campaign.hpp"
#include "apr/mwrepair.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec easy_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "easy";
  spec.statements = 2000;
  spec.tests = 15;
  spec.coverage = 0.7;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.02;
  spec.optimum = 30;
  spec.min_repair_edits = 1;
  spec.seed = 51;
  return spec;
}

TEST(MwRepair, RejectsDegenerateConfig) {
  MwRepairConfig config;
  config.arms = 0;
  EXPECT_THROW(MwRepair{config}, std::invalid_argument);
  config = MwRepairConfig{};
  config.max_count = 0;
  EXPECT_THROW(MwRepair{config}, std::invalid_argument);
}

TEST(MwRepair, ArmGridSpansOneToMaxCount) {
  MwRepairConfig config;
  config.arms = 16;
  config.max_count = 200;
  const MwRepair repair(config);
  EXPECT_EQ(repair.count_for_arm(0), 1u);
  EXPECT_EQ(repair.count_for_arm(15), 200u);
  // Geometric grid: monotone, with several arms in every decade.
  for (std::size_t arm = 1; arm < 16; ++arm) {
    EXPECT_GE(repair.count_for_arm(arm), repair.count_for_arm(arm - 1));
  }
  EXPECT_LT(repair.count_for_arm(8), 50u);  // log density at small counts
}

TEST(MwRepair, ArmsClampToMaxCount) {
  MwRepairConfig config;
  config.arms = 100;
  config.max_count = 10;
  const MwRepair repair(config);
  EXPECT_EQ(repair.config().arms, 10u);
  EXPECT_EQ(repair.count_for_arm(9), 10u);
}

TEST(MwRepair, SingleArmMeansMaxCount) {
  MwRepairConfig config;
  config.arms = 1;
  config.max_count = 7;
  const MwRepair repair(config);
  EXPECT_EQ(repair.count_for_arm(0), 7u);
}

TEST(MwRepair, ThrowsOnEmptyPool) {
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  const MutationPool empty_pool;
  const MwRepair repair(MwRepairConfig{});
  EXPECT_THROW((void)repair.run(oracle, empty_pool), std::invalid_argument);
}

TEST(MwRepair, RepairsAnEasyScenarioAndTerminatesEarly) {
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 800;
  pool_config.seed = 1;
  const auto pool = MutationPool::precompute(oracle, pool_config);

  MwRepairConfig config;
  config.agents = 16;
  config.max_iterations = 300;
  config.seed = 2;
  const MwRepair repair(config);
  const auto outcome = repair.run(oracle, pool);
  ASSERT_TRUE(outcome.repaired);
  EXPECT_FALSE(outcome.patch.empty());
  EXPECT_LT(outcome.iterations, 300u);
  EXPECT_GT(outcome.probes, 0u);
  // The returned patch really is a repair.
  const Evaluation check = oracle.evaluate(outcome.patch);
  EXPECT_TRUE(check.is_repair());
}

TEST(MwRepair, ReturnsNoRepairWhenTheBugIsUnreachable) {
  auto spec = easy_spec();
  spec.min_repair_edits = 100000;
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 300;
  pool_config.seed = 3;
  const auto pool = MutationPool::precompute(oracle, pool_config);

  MwRepairConfig config;
  config.agents = 8;
  config.max_iterations = 30;
  config.seed = 4;
  const MwRepair repair(config);
  const auto outcome = repair.run(oracle, pool);
  EXPECT_FALSE(outcome.repaired);
  EXPECT_TRUE(outcome.patch.empty());
  EXPECT_EQ(outcome.iterations, 30u);
  EXPECT_EQ(outcome.probes, 30u * 8u);
  EXPECT_EQ(outcome.arm_probabilities.size(), repair.config().arms);
}

TEST(MwRepair, ProbesAreCountedOnTheOracle) {
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 300;
  pool_config.seed = 5;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  const std::uint64_t before = oracle.suite_runs();

  MwRepairConfig config;
  config.agents = 8;
  config.max_iterations = 50;
  config.seed = 6;
  const MwRepair repair(config);
  const auto outcome = repair.run(oracle, pool);
  EXPECT_EQ(oracle.suite_runs() - before, outcome.probes);
}

TEST(MwRepair, IsDeterministicPerSeed) {
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 400;
  pool_config.seed = 7;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  MwRepairConfig config;
  config.seed = 8;
  const MwRepair repair(config);
  const auto a = repair.run(oracle, pool);
  const auto b = repair.run(oracle, pool);
  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.iterations, b.iterations);
}

TEST(MwRepair, WorksWithEveryMwuBackend) {
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 600;
  pool_config.seed = 9;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  for (const auto kind :
       {core::MwuKind::kStandard, core::MwuKind::kSlate,
        core::MwuKind::kDistributed}) {
    MwRepairConfig config;
    config.mwu = kind;
    config.arms = 16;
    config.max_iterations = 200;
    config.seed = 10;
    const MwRepair repair(config);
    const auto outcome = repair.run(oracle, pool);
    EXPECT_TRUE(outcome.repaired) << core::to_string(kind);
  }
}

TEST(MwRepair, ParallelEvaluationIsBitIdenticalToSerial) {
  // Patch draws and acceptance draws happen before the fan-out, so the
  // outcome must not depend on eval_threads.
  const ProgramModel program(easy_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 500;
  pool_config.seed = 13;
  const auto pool = MutationPool::precompute(oracle, pool_config);

  MwRepairConfig config;
  config.agents = 16;
  config.max_iterations = 120;
  config.seed = 14;
  config.eval_threads = 1;
  const MwRepair serial(config);
  const auto a = serial.run(oracle, pool);
  config.eval_threads = 4;
  const MwRepair parallel_eval(config);
  const auto b = parallel_eval.run(oracle, pool);

  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.patch, b.patch);
  EXPECT_EQ(a.preferred_count, b.preferred_count);
}

TEST(RepairScenario, EndToEndPipelineRepairsAndAccounts) {
  // The end-to-end pipeline is a one-bug campaign: precompute once, then
  // search; its ledger is precompute plus the online probes.
  CampaignConfig config;
  config.bugs = 1;
  config.repair.agents = 16;
  config.repair.max_iterations = 300;
  config.repair.seed = 11;
  config.pool.target_size = 800;
  config.pool.seed = 12;
  const CampaignOutcome outcome = run_campaign(easy_spec(), config);
  ASSERT_EQ(outcome.bugs.size(), 1u);
  const BugOutcome& bug = outcome.bugs.front();
  EXPECT_TRUE(bug.repaired);
  EXPECT_EQ(outcome.initial_pool_size, 800u);
  EXPECT_EQ(bug.pool_size, 800u);
  EXPECT_GE(outcome.precompute_runs, outcome.initial_pool_size);
  EXPECT_EQ(bug.maintenance_runs, 0u);
  EXPECT_EQ(bug.suite_runs(), bug.online_probes);
  EXPECT_EQ(outcome.amortized_bug_cost(),
            static_cast<double>(outcome.precompute_runs + bug.online_probes));
}

}  // namespace
}  // namespace mwr::apr
