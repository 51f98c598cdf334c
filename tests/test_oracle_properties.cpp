// Scenario-wide property sweeps: every named C/Java scenario's simulated
// oracle must match its own calibration — the statistical contracts the
// figure and table reproductions rest on.
#include <gtest/gtest.h>

#include <ostream>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"

namespace mwr::datasets {

// gtest prints each case's parameter into its name.  Without this it
// dumps the spec's bytes, which start with a heap pointer, so the names
// would change whenever the binary's allocations before registration do.
void PrintTo(const ScenarioSpec& spec, std::ostream* os) { *os << spec.name; }

}  // namespace mwr::datasets

namespace mwr::apr {
namespace {

class ScenarioOracleSweep
    : public ::testing::TestWithParam<datasets::ScenarioSpec> {};

TEST_P(ScenarioOracleSweep, SingleMutationSafeRateMatchesSpec) {
  const auto& spec = GetParam();
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  util::RngStream rng(1);
  int safe = 0;
  constexpr int kSamples = 4000;
  for (int i = 0; i < kSamples; ++i) {
    safe += oracle.is_safe(random_mutation(program, rng)) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(safe) / kSamples, spec.safe_rate, 0.04)
      << spec.name;
}

TEST_P(ScenarioOracleSweep, CombinedPassRateTracksTheCalibratedModel) {
  const auto& spec = GetParam();
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = 600;
  pool_config.seed = 2;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  util::RngStream rng(3);
  const std::size_t x = std::max<std::size_t>(4, spec.optimum / 2);
  constexpr int kTrials = 400;
  int passed = 0;
  for (int t = 0; t < kTrials; ++t) {
    const auto patch = sample_from_pool(pool.mutations(), x, rng);
    const auto e = oracle.evaluate(patch);
    if (e.required_passed == e.required_total) ++passed;
  }
  const double expected = datasets::pass_probability(
      static_cast<double>(x), spec.interference());
  EXPECT_NEAR(static_cast<double>(passed) / kTrials, expected, 0.08)
      << spec.name << " at x=" << x;
}

TEST_P(ScenarioOracleSweep, RelevanceRateAmongSafeMatchesRepairRate) {
  const auto& spec = GetParam();
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  util::RngStream rng(4);
  std::size_t safe = 0;
  std::size_t relevant = 0;
  for (int i = 0; i < 60000; ++i) {
    const Mutation m = random_mutation(program, rng);
    if (!oracle.is_safe(m)) continue;
    ++safe;
    if (oracle.is_repair_relevant(m)) ++relevant;
  }
  ASSERT_GT(safe, 10000u);
  const double rate = static_cast<double>(relevant) / static_cast<double>(safe);
  // Wide tolerance: very sparse scenarios have few relevant draws.
  EXPECT_NEAR(rate, spec.repair_rate,
              0.5 * spec.repair_rate + 3.0 / static_cast<double>(safe))
      << spec.name;
}

TEST_P(ScenarioOracleSweep, OptionSetPeakSitsNearTheCalibratedOptimum) {
  const auto& spec = GetParam();
  const auto options = spec.option_set();
  const auto best_count = spec.count_for_option(options.best_option());
  EXPECT_NEAR(static_cast<double>(best_count),
              static_cast<double>(spec.optimum),
              0.4 * static_cast<double>(spec.optimum) + 6.0)
      << spec.name;
}

TEST_P(ScenarioOracleSweep, BaselineFitnessIsSuiteSize) {
  const auto& spec = GetParam();
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  EXPECT_EQ(oracle.baseline_fitness(), spec.tests);
  const auto empty = oracle.evaluate({});
  EXPECT_TRUE(!empty.is_repair());
}

std::vector<datasets::ScenarioSpec> all_scenarios() {
  auto specs = datasets::c_scenarios();
  const auto java = datasets::java_scenarios();
  specs.insert(specs.end(), java.begin(), java.end());
  return specs;
}

INSTANTIATE_TEST_SUITE_P(AllScenarios, ScenarioOracleSweep,
                         ::testing::ValuesIn(all_scenarios()),
                         [](const auto& info) {
                           std::string name = info.param.name;
                           for (auto& ch : name) {
                             if (!std::isalnum(static_cast<unsigned char>(ch)))
                               ch = '_';
                           }
                           return name;
                         });

}  // namespace
}  // namespace mwr::apr
