// Unit tests for datasets/scenario: the analytic repair surface (Fig 4a/4b
// math), interference calibration, and the ten named scenarios.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "datasets/scenario.hpp"

namespace mwr::datasets {
namespace {

TEST(PassProbability, OneForSingleMutation) {
  EXPECT_DOUBLE_EQ(pass_probability(1.0, 0.01), 1.0);
  EXPECT_DOUBLE_EQ(pass_probability(0.5, 0.01), 1.0);
}

TEST(PassProbability, DecaysWithPairCount) {
  const double q = 0.001;
  EXPECT_GT(pass_probability(10, q), pass_probability(20, q));
  EXPECT_NEAR(pass_probability(10, q), std::exp(-q * 45.0), 1e-12);
}

TEST(PassProbability, GzipCalibrationSurvivesAtEighty) {
  // The paper's Fig 4a anchor: > 50% of programs still pass with 80
  // combined safe mutations on gzip.
  const auto spec = scenario_by_name("gzip-2009-08-16");
  EXPECT_GT(pass_probability(80.0, spec.interference()), 0.5);
}

TEST(RepairDensity, ZeroBelowOneMutation) {
  EXPECT_DOUBLE_EQ(repair_density(0.5, 0.03, 0.001), 0.0);
}

TEST(RepairDensity, IsUnimodal) {
  const double p = 0.03;
  const double q = 2e-4;
  const std::size_t mode = repair_optimum(p, q);
  EXPECT_GT(mode, 1u);
  // Strictly below the mode value on both sides.
  const double at_mode = repair_density(static_cast<double>(mode), p, q);
  EXPECT_GT(at_mode, repair_density(1.0, p, q));
  EXPECT_GT(at_mode, repair_density(static_cast<double>(4 * mode), p, q));
}

TEST(RepairOptimum, MovesLeftWithMoreInterference) {
  EXPECT_GT(repair_optimum(0.03, 1e-5), repair_optimum(0.03, 1e-3));
}

TEST(CalibrateInterference, InvertsTheOptimum) {
  for (const std::size_t target : {11u, 48u, 130u, 271u}) {
    const double q = calibrate_interference(0.01, target);
    const std::size_t achieved = repair_optimum(0.01, q, 8 * target + 64);
    EXPECT_NEAR(static_cast<double>(achieved), static_cast<double>(target),
                2.0)
        << "target " << target;
  }
}

TEST(CalibrateInterference, RejectsZeroTarget) {
  EXPECT_THROW((void)calibrate_interference(0.01, 0), std::invalid_argument);
}

TEST(ScenarioSpec, FingerprintCoversEveryField) {
  const ScenarioSpec base;
  const std::uint64_t h = base.fingerprint();
  EXPECT_EQ(h, ScenarioSpec{}.fingerprint());
  const auto differs = [&](auto&& edit) {
    ScenarioSpec spec;
    edit(spec);
    return spec.fingerprint() != h;
  };
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.name = "x"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.language = "C"; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.options; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.statements; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.tests; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.coverage += 0.01; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.safe_rate += 0.01; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.repair_rate += 0.01; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.optimum; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.min_repair_edits; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.value_noise += 0.01; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.seed; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { ++s.bug_id; }));
  EXPECT_TRUE(differs([](ScenarioSpec& s) { s.relevance_localized = true; }));
  // A string is its length and then its bytes, so moving a byte from one
  // string to the next changes the fold.
  ScenarioSpec ab_c;
  ab_c.name = "ab";
  ab_c.language = "c";
  ScenarioSpec a_bc;
  a_bc.name = "a";
  a_bc.language = "bc";
  EXPECT_NE(ab_c.fingerprint(), a_bc.fingerprint());
}

TEST(Scenarios, FiveCAndFiveJava) {
  EXPECT_EQ(c_scenarios().size(), 5u);
  EXPECT_EQ(java_scenarios().size(), 5u);
  for (const auto& s : c_scenarios()) EXPECT_EQ(s.language, "C");
  for (const auto& s : java_scenarios()) EXPECT_EQ(s.language, "Java");
}

TEST(Scenarios, SizesMatchThePapersTables) {
  EXPECT_EQ(scenario_by_name("units").options, 1000u);
  EXPECT_EQ(scenario_by_name("gzip-2009-08-16").options, 5000u);
  EXPECT_EQ(scenario_by_name("gzip-2009-09-26").options, 2000u);
  EXPECT_EQ(scenario_by_name("libtiff-2005-12-14").options, 100u);
  EXPECT_EQ(scenario_by_name("lighttpd-1806-1807").options, 50u);
  for (const auto& s : java_scenarios()) EXPECT_EQ(s.options, 100u);
}

TEST(Scenarios, GzipOptimumIsFortyEight) {
  EXPECT_EQ(scenario_by_name("gzip-2009-08-16").optimum, 48u);
}

TEST(Scenarios, OptimaFallInThePapersRange) {
  for (const auto& family : {c_scenarios(), java_scenarios()}) {
    for (const auto& s : family) {
      EXPECT_GE(s.optimum, 11u) << s.name;
      EXPECT_LE(s.optimum, 271u) << s.name;
    }
  }
}

TEST(Scenarios, MultiEditDefectsExist) {
  // The §IV-G story needs defects single-edit tools cannot repair.
  EXPECT_GE(scenario_by_name("libtiff-2005-12-14").min_repair_edits, 2u);
  EXPECT_GE(scenario_by_name("Closure13").min_repair_edits, 2u);
}

TEST(ScenarioByName, ThrowsOnUnknown) {
  EXPECT_THROW(scenario_by_name("not-a-scenario"), std::invalid_argument);
}

TEST(CountForOption, SpansOneToMaxMonotonically) {
  const auto spec = scenario_by_name("Chart26");  // k=100, optimum 60
  EXPECT_EQ(spec.count_for_option(0), 1u);
  const std::size_t last = spec.count_for_option(spec.options - 1);
  EXPECT_EQ(last, std::max<std::size_t>(4 * spec.optimum, spec.options));
  for (std::size_t i = 1; i < spec.options; ++i) {
    EXPECT_GE(spec.count_for_option(i), spec.count_for_option(i - 1));
  }
}

TEST(OptionSetFromSpec, ValuesAreValidAndPeakNearOptimum) {
  const auto spec = scenario_by_name("Chart26");
  const auto options = spec.option_set();
  EXPECT_EQ(options.size(), spec.options);
  EXPECT_EQ(options.name(), spec.name);
  for (const double v : options.values()) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
  }
  // The best option's mutation count sits near the calibrated optimum.
  const auto best_count = spec.count_for_option(options.best_option());
  EXPECT_NEAR(static_cast<double>(best_count),
              static_cast<double>(spec.optimum),
              0.35 * static_cast<double>(spec.optimum) + 4.0);
}

TEST(OptionSetFromSpec, JavaScenariosDifferInDistribution) {
  // Same k, different value distributions (§IV-A).
  const auto a = scenario_by_name("Math8").option_set();
  const auto b = scenario_by_name("Math80").option_set();
  ASSERT_EQ(a.size(), b.size());
  EXPECT_NE(a.best_option(), b.best_option());
}

TEST(OptionSetFromSpec, IsDeterministic) {
  const auto a = scenario_by_name("units").option_set();
  const auto b = scenario_by_name("units").option_set();
  EXPECT_TRUE(std::equal(a.values().begin(), a.values().end(),
                         b.values().begin()));
}

}  // namespace
}  // namespace mwr::datasets
