// Unit tests for core/option_set: validation, best-in-hindsight, the
// Table III accuracy metric, and the Bernoulli oracle.
#include <gtest/gtest.h>

#include <cmath>

#include "core/option_set.hpp"

namespace mwr::core {
namespace {

TEST(OptionSet, StoresNameAndValues) {
  OptionSet options("demo", {0.1, 0.9, 0.5});
  EXPECT_EQ(options.name(), "demo");
  EXPECT_EQ(options.size(), 3u);
  EXPECT_DOUBLE_EQ(options.value(1), 0.9);
}

TEST(OptionSet, RejectsEmptySet) {
  EXPECT_THROW(OptionSet("empty", {}), std::invalid_argument);
}

TEST(OptionSet, RejectsOutOfRangeValues) {
  EXPECT_THROW(OptionSet("bad", {0.5, 1.5}), std::invalid_argument);
  EXPECT_THROW(OptionSet("bad", {-0.1}), std::invalid_argument);
  EXPECT_THROW(OptionSet("bad", {std::nan("")}), std::invalid_argument);
}

TEST(OptionSet, BestOptionIsArgmax) {
  OptionSet options("demo", {0.3, 0.8, 0.2, 0.8});
  EXPECT_EQ(options.best_option(), 1u);  // ties break to the lowest index
  EXPECT_DOUBLE_EQ(options.best_value(), 0.8);
}

TEST(OptionSet, ValueAccessorBoundsChecks) {
  OptionSet options("demo", {0.5});
  EXPECT_THROW((void)options.value(5), std::out_of_range);
}

TEST(OptionSet, AccuracyIsPerfectForBestOption) {
  OptionSet options("demo", {0.2, 0.9});
  EXPECT_DOUBLE_EQ(options.accuracy_percent(1), 100.0);
}

TEST(OptionSet, AccuracyIsRelativePercentError) {
  OptionSet options("demo", {0.45, 0.9});
  // |0.9 - 0.45| / 0.9 = 50% error => 50% accuracy.
  EXPECT_DOUBLE_EQ(options.accuracy_percent(0), 50.0);
}

TEST(OptionSet, AccuracyHandlesAllZeroValues) {
  OptionSet options("demo", {0.0, 0.0});
  EXPECT_DOUBLE_EQ(options.accuracy_percent(1), 100.0);
}

TEST(BernoulliOracle, SampleRateMatchesValue) {
  OptionSet options("demo", {0.25, 0.75});
  BernoulliOracle oracle(options);
  EXPECT_EQ(oracle.num_options(), 2u);
  util::RngStream rng(1);
  int hits = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    hits += oracle.sample(0, rng) > 0.0 ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.25, 0.01);
}

TEST(BernoulliOracle, DegenerateValuesAreDeterministic) {
  OptionSet options("demo", {0.0, 1.0});
  BernoulliOracle oracle(options);
  util::RngStream rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(oracle.sample(0, rng), 0.0);
    EXPECT_DOUBLE_EQ(oracle.sample(1, rng), 1.0);
  }
}

}  // namespace
}  // namespace mwr::core
