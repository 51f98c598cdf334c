// Unit tests for core/mwu: the factory, the run driver and its per-cycle
// hook, the intractability path, and the MwuResult bookkeeping that feeds
// Tables II-IV.
#include <gtest/gtest.h>

#include "core/mwu.hpp"
#include "datasets/distributions.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

TEST(MwuKindNames, AreThePapersNames) {
  EXPECT_EQ(to_string(MwuKind::kStandard), "Standard");
  EXPECT_EQ(to_string(MwuKind::kSlate), "Slate");
  EXPECT_EQ(to_string(MwuKind::kDistributed), "Distributed");
}

TEST(MakeMwu, InstantiatesEachKind) {
  const auto config = config_for(16);
  EXPECT_EQ(make_mwu(MwuKind::kStandard, config)->kind(), MwuKind::kStandard);
  EXPECT_EQ(make_mwu(MwuKind::kSlate, config)->kind(), MwuKind::kSlate);
  EXPECT_EQ(make_mwu(MwuKind::kDistributed, config)->kind(),
            MwuKind::kDistributed);
}

TEST(RunMwu, RejectsOracleConfigMismatch) {
  const auto options = datasets::make_random(8, 1);
  const BernoulliOracle oracle(options);
  auto config = config_for(16);  // oracle has 8
  const auto strategy = make_mwu(MwuKind::kStandard, config);
  EXPECT_THROW((void)run_mwu(*strategy, oracle, config, util::RngStream(1)),
               std::invalid_argument);
}

TEST(RunMwu, ConvergesAndReportsBookkeeping) {
  OptionSet options("easy", {0.05, 0.95, 0.05, 0.05});
  const BernoulliOracle oracle(options);
  auto config = config_for(4);
  const auto result =
      run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(2));
  EXPECT_TRUE(result.converged);
  EXPECT_FALSE(result.intractable);
  EXPECT_EQ(result.best_option, 1u);
  EXPECT_GT(result.iterations, 0u);
  EXPECT_LT(result.iterations, config.max_iterations);
  EXPECT_EQ(result.cpus_per_cycle, config.num_agents);
  // Each cycle evaluates one probe per agent.
  EXPECT_EQ(result.evaluations, result.iterations * config.num_agents);
  EXPECT_EQ(result.cpu_iterations(), result.iterations * config.num_agents);
  ASSERT_EQ(result.probabilities.size(), 4u);
  EXPECT_GT(result.probabilities[1], 0.99);
}

TEST(RunMwu, HitsIterationCapWithoutConverging) {
  // All options identical: no algorithm can separate them.
  OptionSet options("flat", std::vector<double>(16, 0.5));
  const BernoulliOracle oracle(options);
  auto config = config_for(16);
  config.max_iterations = 20;
  const auto result =
      run_mwu(MwuKind::kSlate, oracle, config, util::RngStream(3));
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 20u);
}

TEST(RunMwu, DistributedIntractablePathSkipsExecution) {
  const auto options = datasets::make_random(16384, 4);
  const BernoulliOracle oracle(options);
  auto config = config_for(16384);
  const auto result =
      run_mwu(MwuKind::kDistributed, oracle, config, util::RngStream(5));
  EXPECT_TRUE(result.intractable);
  EXPECT_FALSE(result.converged);
  EXPECT_EQ(result.iterations, 0u);
  EXPECT_EQ(result.evaluations, 0u);
}

TEST(RunMwu, DeterministicForFixedSeed) {
  const auto options = datasets::make_unimodal(32, 6);
  const BernoulliOracle oracle(options);
  const auto config = config_for(32);
  const auto a = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  const auto b = run_mwu(MwuKind::kStandard, oracle, config, util::RngStream(7));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.best_option, b.best_option);
  EXPECT_EQ(a.probabilities, b.probabilities);
}

TEST(RunMwu, CycleObserverWatchesWithoutChangingTheRun) {
  const auto options = datasets::make_unimodal(32, 9);
  const BernoulliOracle oracle(options);
  auto config = config_for(32);
  config.num_agents = 8;
  config.max_iterations = 400;
  for (const auto kind : {MwuKind::kStandard, MwuKind::kSlate,
                          MwuKind::kDistributed, MwuKind::kExp3}) {
    const auto plain = run_mwu(kind, oracle, config, util::RngStream(10));
    std::size_t cycles = 0;
    std::uint64_t probes_seen = 0;
    std::vector<double> last_probabilities;
    const auto hooked = run_mwu(
        kind, oracle, config, util::RngStream(10),
        [&](std::span<const std::size_t> probes,
            std::span<const double> rewards, const MwuStrategy& strategy) {
          EXPECT_EQ(probes.size(), rewards.size());
          ++cycles;
          probes_seen += probes.size();
          last_probabilities = strategy.probabilities();
        });
    EXPECT_EQ(hooked.converged, plain.converged) << to_string(kind);
    EXPECT_EQ(hooked.intractable, plain.intractable) << to_string(kind);
    EXPECT_EQ(hooked.iterations, plain.iterations) << to_string(kind);
    EXPECT_EQ(hooked.best_option, plain.best_option) << to_string(kind);
    EXPECT_EQ(hooked.cpus_per_cycle, plain.cpus_per_cycle) << to_string(kind);
    EXPECT_EQ(hooked.evaluations, plain.evaluations) << to_string(kind);
    EXPECT_EQ(hooked.probabilities, plain.probabilities) << to_string(kind);
    EXPECT_EQ(cycles, hooked.iterations) << to_string(kind);
    EXPECT_EQ(probes_seen, hooked.evaluations) << to_string(kind);
    // The hook runs after update(): the last cycle's state is the result's.
    EXPECT_EQ(last_probabilities, hooked.probabilities) << to_string(kind);
  }
}

// Every algorithm must find the clearly-best option of an easy instance.
class AllKindsEasyInstance : public ::testing::TestWithParam<MwuKind> {};

TEST_P(AllKindsEasyInstance, FindsTheDominantOption) {
  std::vector<double> values(20, 0.05);
  values[13] = 0.95;
  OptionSet options("easy20", std::move(values));
  const BernoulliOracle oracle(options);
  const auto config = config_for(20);
  const auto result = run_mwu(GetParam(), oracle, config, util::RngStream(8));
  EXPECT_TRUE(result.converged) << to_string(GetParam());
  EXPECT_EQ(result.best_option, 13u) << to_string(GetParam());
  EXPECT_GT(options.accuracy_percent(result.best_option), 99.0);
}

INSTANTIATE_TEST_SUITE_P(Kinds, AllKindsEasyInstance,
                         ::testing::Values(MwuKind::kStandard,
                                           MwuKind::kSlate,
                                           MwuKind::kDistributed),
                         [](const auto& info) { return to_string(info.param); });

}  // namespace
}  // namespace mwr::core
