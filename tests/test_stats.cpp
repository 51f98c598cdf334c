// Unit tests for util/stats: Welford accumulation, merging, percentiles
// and the span helpers.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/stats.hpp"

namespace mwr::util {
namespace {

TEST(RunningStats, EmptyIsZero) {
  RunningStats rs;
  EXPECT_EQ(rs.count(), 0u);
  EXPECT_EQ(rs.mean(), 0.0);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_EQ(rs.stddev(), 0.0);
}

TEST(RunningStats, SingleSample) {
  RunningStats rs;
  rs.add(4.5);
  EXPECT_EQ(rs.count(), 1u);
  EXPECT_DOUBLE_EQ(rs.mean(), 4.5);
  EXPECT_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.min(), 4.5);
  EXPECT_DOUBLE_EQ(rs.max(), 4.5);
}

TEST(RunningStats, MatchesClosedForm) {
  RunningStats rs;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  // Sample variance with n-1 = 7: sum of squared deviations = 32.
  EXPECT_NEAR(rs.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
  EXPECT_DOUBLE_EQ(rs.sum(), 40.0);
}

TEST(RunningStats, MergeEqualsSequential) {
  RngStream rng(1);
  RunningStats whole;
  RunningStats left;
  RunningStats right;
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform(-10.0, 10.0);
    whole.add(x);
    (i % 2 == 0 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(left.min(), whole.min());
  EXPECT_DOUBLE_EQ(left.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptyIsIdentity) {
  RunningStats a;
  a.add(1.0);
  a.add(3.0);
  RunningStats empty;
  a.merge(empty);
  EXPECT_EQ(a.count(), 2u);
  EXPECT_DOUBLE_EQ(a.mean(), 2.0);
  empty.merge(a);
  EXPECT_EQ(empty.count(), 2u);
  EXPECT_DOUBLE_EQ(empty.mean(), 2.0);
}

TEST(RunningStats, NumericallyStableOnLargeOffsets) {
  RunningStats rs;
  // Classic catastrophic-cancellation trap for the naive sum-of-squares.
  for (int i = 0; i < 1000; ++i) rs.add(1e9 + (i % 2));
  EXPECT_NEAR(rs.variance(), 0.2502, 0.01);
}

TEST(Percentile, MedianOfOddCount) {
  const std::vector<double> xs = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks) {
  const std::vector<double> xs = {0.0, 10.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.25), 2.5);
}

TEST(Percentile, ExtremesAreMinMax) {
  const std::vector<double> xs = {4.0, -1.0, 9.0, 2.0};
  EXPECT_DOUBLE_EQ(percentile(xs, 0.0), -1.0);
  EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 9.0);
}

TEST(Percentile, RejectsEmptyAndBadQ) {
  EXPECT_THROW((void)percentile({}, 0.5), std::invalid_argument);
  const std::vector<double> xs = {1.0};
  EXPECT_THROW((void)percentile(xs, -0.1), std::invalid_argument);
  EXPECT_THROW((void)percentile(xs, 1.1), std::invalid_argument);
}

// Property: Welford mean/stddev of uniform samples converge to theory.
class StatsConvergence : public ::testing::TestWithParam<int> {};

TEST_P(StatsConvergence, UniformMoments) {
  RngStream rng(GetParam());
  RunningStats rs;
  for (int i = 0; i < 200000; ++i) rs.add(rng.uniform());
  EXPECT_NEAR(rs.mean(), 0.5, 0.005);
  EXPECT_NEAR(rs.stddev(), std::sqrt(1.0 / 12.0), 0.005);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StatsConvergence, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace mwr::util
