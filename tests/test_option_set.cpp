// Unit tests for core/option_set: validation, best-in-hindsight, the
// Table III accuracy metric, and the Bernoulli oracle.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

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

// sample_batch must draw exactly what a loop of sample() calls draws: the
// same rewards, and the stream left where the loop leaves it.
void expect_batch_matches_loop(const CostOracle& oracle,
                               const std::vector<std::size_t>& probes,
                               std::uint64_t seed) {
  util::RngStream loop_rng(seed);
  util::RngStream batch_rng(seed);
  std::vector<double> want(probes.size());
  for (std::size_t j = 0; j < probes.size(); ++j) {
    want[j] = oracle.sample(probes[j], loop_rng);
  }
  std::vector<double> got(probes.size(), -1.0);
  oracle.sample_batch(probes, got, batch_rng);
  EXPECT_EQ(got, want);
  EXPECT_EQ(batch_rng.next_u64(), loop_rng.next_u64());
}

std::vector<std::size_t> random_probes(std::size_t count, std::size_t options,
                                       std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<std::size_t> probes(count);
  for (auto& probe : probes) probe = rng.uniform_index(options);
  return probes;
}

TEST(BernoulliOracle, SampleBatchDrawsAsThePerProbeLoop) {
  OptionSet options("demo", {0.1, 0.5, 0.9, 0.0, 1.0, 0.33});
  const BernoulliOracle oracle(options);
  expect_batch_matches_loop(oracle, random_probes(5000, 6, 3), 11);
  expect_batch_matches_loop(oracle, {}, 12);
}

// Draws a probe-dependent number of values and returns the last one, so
// any change to the draw order shows in the rewards.  It keeps the default
// sample_batch.
class MultiDrawOracle final : public CostOracle {
 public:
  [[nodiscard]] std::size_t num_options() const override { return 8; }
  [[nodiscard]] double sample(std::size_t option,
                              util::RngStream& rng) const override {
    double last = 0.0;
    for (std::size_t i = 0; i <= option % 3; ++i) last = rng.uniform();
    return last;
  }
};

TEST(CostOracle, DefaultSampleBatchDrawsAsThePerProbeLoop) {
  const MultiDrawOracle oracle;
  expect_batch_matches_loop(oracle, random_probes(2000, 8, 4), 13);
}

}  // namespace
}  // namespace mwr::core
