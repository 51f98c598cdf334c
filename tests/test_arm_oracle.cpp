// Unit tests for apr/arm_oracle: one probe through the CostOracle
// interface draws its patch, then its acceptance value, then runs the
// suite once, and rewards the result with the Fig 6 rule of its
// RewardMode — the same rule RepairSession's online cycle applies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "apr/arm_oracle.hpp"
#include "apr/mutation.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/program.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec arm_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "arm-oracle";
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

TEST(ArmProbeOracle, RewardIsTheRuleAppliedToTheSameDraws) {
  const ProgramModel program(arm_spec());
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 200;
  pool_config.threads = 1;
  pool_config.seed = 5;
  const MutationPool pool = MutationPool::precompute(oracle, pool_config);
  ASSERT_FALSE(pool.empty());

  for (const RewardMode mode :
       {RewardMode::kSafeDensityProxy, RewardMode::kFitnessNonDecrease}) {
    MwRepairConfig config;
    config.arms = 16;
    config.max_count = 64;
    config.reward = mode;
    const ArmProbeOracle arm_oracle(oracle, pool, config);
    ASSERT_EQ(arm_oracle.num_options(), config.arms);

    std::size_t rewarded = 0;
    std::size_t probes = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      for (std::size_t arm = 0; arm < config.arms; ++arm) {
        util::RngStream rng(seed * 1000 + arm);
        util::RngStream replay = rng;
        const double reward = arm_oracle.sample(arm, rng);

        const std::size_t count =
            std::min(arm_oracle.count_for_arm(arm), pool.size());
        const Patch patch = sample_from_pool(pool.mutations(), count, replay);
        const double acceptance = replay.uniform();
        const Evaluation evaluation = oracle.evaluate(patch);
        const bool fitness_kept =
            evaluation.fitness() >= oracle.baseline_fitness();
        const bool accepted =
            mode == RewardMode::kFitnessNonDecrease
                ? fitness_kept
                : fitness_kept &&
                      acceptance < static_cast<double>(patch.size()) /
                                       static_cast<double>(config.max_count);
        EXPECT_EQ(reward, accepted ? 1.0 : 0.0)
            << "seed " << seed << " arm " << arm;
        // The probe consumed exactly the replayed draws.
        EXPECT_EQ(rng.next_u64(), replay.next_u64());
        rewarded += accepted ? 1 : 0;
        ++probes;
      }
    }
    // Both outcomes occur, so the comparison above covers each branch.
    EXPECT_GT(rewarded, 0u);
    EXPECT_LT(rewarded, probes);
  }
}

}  // namespace
}  // namespace mwr::apr
