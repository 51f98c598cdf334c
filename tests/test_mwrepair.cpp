// Unit + integration tests for apr/mwrepair: the arm grid, the Fig 6 loop,
// early termination, reward modes, and the end-to-end pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <utility>

#include "apr/campaign.hpp"
#include "apr/mwrepair.hpp"
#include "apr/oracle_cache.hpp"
#include "apr/repair_session.hpp"
#include "parallel/superstep.hpp"

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

TEST(MwRepair, CountTableMatchesTheGeometricGridFormula) {
  // count_for_arm reads a table built at construction; every entry must
  // equal the grid formula it replaced, round(max_count^(arm / (arms-1)))
  // capped at max_count, with one arm standing for max_count.
  for (const auto& [arms, max_count] :
       {std::pair<std::size_t, std::size_t>{1, 7},
        {1, 256},
        {2, 1},      // arms clamp to max_count: one arm.
        {100, 10},   // arms clamp to max_count: ten arms.
        {2, 256},
        {16, 200},
        {64, 256},
        {64, 150},
        {37, 1000}}) {
    MwRepairConfig config;
    config.arms = arms;
    config.max_count = max_count;
    const MwRepair repair(config);
    const std::size_t used = std::min(arms, max_count);
    ASSERT_EQ(repair.config().arms, used);
    for (std::size_t arm = 0; arm < used; ++arm) {
      std::size_t expected = max_count;
      if (used > 1) {
        const double t =
            static_cast<double>(arm) / static_cast<double>(used - 1);
        expected = std::min(
            max_count, static_cast<std::size_t>(std::lround(std::pow(
                           static_cast<double>(max_count), t))));
      }
      EXPECT_EQ(repair.count_for_arm(arm), expected)
          << "arms=" << arms << " max_count=" << max_count << " arm=" << arm;
    }
  }
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

TEST(MwRepair, EngineStepMatchesTheStagedCallsInTrajectoryHash) {
  // With an engine, RepairSession::step streams each cycle: the calling
  // thread stages the probes into the sweep, the workers evaluate them,
  // and one participant folds the draws into the trajectory hash behind
  // the release mark; the hand-staged calls leave the fold to
  // finish_cycle.  Neither the hash nor the outcome may depend on which
  // path folded or on the worker count, and MwRepair::run must agree at
  // any eval_threads.  Two budgets: one the search exhausts, one it
  // repairs within (a scarce two-edit repair takes a few dozen cycles).
  datasets::ScenarioSpec spec = easy_spec();
  spec.repair_rate = 0.004;
  spec.min_repair_edits = 2;
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 500;
  pool_config.seed = 13;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  oracle.prime_wave(pool.mutations());

  bool saw_repair = false;
  bool saw_exhaustion = false;
  for (const std::size_t budget : {std::size_t{4}, std::size_t{120}}) {
    MwRepairConfig config;
    config.agents = 16;
    config.max_iterations = budget;
    config.seed = 14;

    RepairSession staged(config, oracle, pool);
    while (!staged.done()) {
      const std::size_t n = staged.begin_cycle();
      for (std::size_t j = 0; j < n; ++j) staged.evaluate_staged(j);
      (void)staged.finish_cycle();
    }
    const RepairOutcome& expected = staged.outcome();
    ASSERT_GT(expected.iterations, 1u);
    (expected.repaired ? saw_repair : saw_exhaustion) = true;

    const auto expect_same = [&](const RepairOutcome& got,
                                 const std::string& where) {
      EXPECT_EQ(got.repaired, expected.repaired) << where;
      EXPECT_EQ(got.probes, expected.probes) << where;
      EXPECT_EQ(got.iterations, expected.iterations) << where;
      EXPECT_EQ(got.patch, expected.patch) << where;
      EXPECT_EQ(got.preferred_count, expected.preferred_count) << where;
      EXPECT_EQ(got.arm_probabilities, expected.arm_probabilities) << where;
    };
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      parallel::SuperstepEngine engine(
          1, parallel::SuperstepEngine::Config{workers});
      RepairSession stepped(config, oracle, pool);
      while (!stepped.step(&engine)) {
      }
      const std::string where = "budget " + std::to_string(budget) +
                                ", workers " + std::to_string(workers);
      EXPECT_EQ(stepped.trajectory_hash(), staged.trajectory_hash()) << where;
      expect_same(stepped.outcome(), where);
    }
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      config.eval_threads = threads;
      expect_same(MwRepair(config).run(oracle, pool),
                  "budget " + std::to_string(budget) + ", eval_threads " +
                      std::to_string(threads));
    }
  }
  EXPECT_TRUE(saw_repair);
  EXPECT_TRUE(saw_exhaustion);
}

TEST(MwRepair, PoolAboveTheWaveCapMatchesTheUncachedReference) {
  // repair_tool's default --pool 12000 runs here: past kMaxWavePool the
  // oracle builds no wave table, and every probe materializes its patch
  // for evaluate().  That path must still equal the uncached reference
  // field for field.  A scarce, two-edit repair takes the search through
  // a few dozen cycles before it lands.
  datasets::ScenarioSpec spec = easy_spec();
  spec.repair_rate = 0.004;
  spec.min_repair_edits = 2;
  const ProgramModel program(spec);
  const TestOracle reference(program, /*enable_cache=*/false);
  const TestOracle cached(program);
  PoolConfig pool_config;
  pool_config.target_size = OracleCache::kMaxWavePool + 52;
  pool_config.seed = 17;
  const auto pool = MutationPool::precompute(reference, pool_config);
  ASSERT_GT(pool.size(), OracleCache::kMaxWavePool);

  MwRepairConfig config;
  config.agents = 16;
  config.max_iterations = 80;
  config.seed = 18;
  config.eval_threads = 2;
  const MwRepair repair(config);
  const std::uint64_t reference_before = reference.suite_runs();
  const std::uint64_t cached_before = cached.suite_runs();
  const auto a = repair.run(reference, pool);
  const auto b = repair.run(cached, pool);
  EXPECT_FALSE(cached.wave_ready());

  EXPECT_EQ(a.repaired, b.repaired);
  EXPECT_EQ(a.patch, b.patch);
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.preferred_count, b.preferred_count);
  EXPECT_EQ(a.arm_probabilities, b.arm_probabilities);
  EXPECT_EQ(reference.suite_runs() - reference_before,
            cached.suite_runs() - cached_before);
  EXPECT_TRUE(a.repaired);
  EXPECT_GT(a.iterations, 1u);
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
