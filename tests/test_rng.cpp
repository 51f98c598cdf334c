// Unit tests for util/rng: determinism, range contracts, statistical
// sanity, and stream independence — the foundation every experiment's
// reproducibility rests on — plus the without-replacement draw over it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <set>
#include <utility>

#include "apr/mutation.hpp"
#include "util/rng.hpp"

namespace mwr::util {
namespace {

TEST(SplitMix64, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.next(), b.next());
}

TEST(RngStream, SameSeedSameSequence) {
  RngStream a(7);
  RngStream b(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngStream, SeedIsRecorded) {
  RngStream rng(12345);
  EXPECT_EQ(rng.seed(), 12345u);
}

TEST(RngStream, UniformInHalfOpenUnitInterval) {
  RngStream rng(3);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngStream, UniformRangeRespectsBounds) {
  RngStream rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-2.5, 7.5);
    EXPECT_GE(u, -2.5);
    EXPECT_LT(u, 7.5);
  }
}

TEST(RngStream, UniformMeanIsCentered) {
  RngStream rng(5);
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(RngStream, UniformIndexStaysBelowBound) {
  RngStream rng(6);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.uniform_index(17), 17u);
  }
}

TEST(RngStream, UniformIndexCoversAllValues) {
  RngStream rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RngStream, UniformIndexIsUnbiased) {
  RngStream rng(8);
  constexpr std::uint64_t kBound = 5;
  constexpr int kSamples = 100000;
  std::vector<int> counts(kBound, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[rng.uniform_index(kBound)];
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kSamples, 1.0 / kBound, 0.01);
  }
}

TEST(RngStream, BernoulliEdgeProbabilities) {
  RngStream rng(10);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(RngStream, BernoulliHitsItsRate) {
  RngStream rng(11);
  int hits = 0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, 0.3, 0.01);
}

TEST(RngStream, WeightedChoiceRespectsWeights) {
  RngStream rng(12);
  const std::vector<double> weights = {1.0, 0.0, 3.0};
  std::vector<int> counts(3, 0);
  constexpr int kSamples = 40000;
  for (int i = 0; i < kSamples; ++i) ++counts[rng.weighted_choice(weights)];
  EXPECT_EQ(counts[1], 0);
  EXPECT_NEAR(static_cast<double>(counts[0]) / kSamples, 0.25, 0.02);
  EXPECT_NEAR(static_cast<double>(counts[2]) / kSamples, 0.75, 0.02);
}

TEST(RngStream, WeightedChoiceZeroTotalSignalsError) {
  RngStream rng(13);
  const std::vector<double> weights = {0.0, 0.0};
  EXPECT_EQ(rng.weighted_choice(weights), weights.size());
}

TEST(RngStream, WeightedChoiceSingleOption) {
  RngStream rng(14);
  const std::vector<double> weights = {2.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted_choice(weights), 0u);
}

// The without-replacement draw lives in one place,
// apr::sample_from_pool_indexed (ascending indices); these pin its draw
// sequence and distribution over an RngStream.
std::vector<std::uint32_t> sample_without_replacement(RngStream& rng,
                                                      std::size_t population,
                                                      std::size_t count) {
  std::vector<std::uint32_t> out;
  apr::sample_from_pool_indexed(population, count, rng, out);
  return out;
}

TEST(RngStream, SampleWithoutReplacementIsDistinct) {
  RngStream rng(15);
  for (int trial = 0; trial < 100; ++trial) {
    const auto sample = sample_without_replacement(rng, 50, 20);
    ASSERT_EQ(sample.size(), 20u);
    const std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 20u);
    for (const auto s : sample) EXPECT_LT(s, 50u);
  }
}

TEST(RngStream, SparseSampleMatchesDensePartialFisherYates) {
  // The scratch permutation is restored to the identity after every call
  // and only its touched slots move, so each draw must select exactly the
  // prefix a dense iota-and-swap partial Fisher–Yates selects, from the
  // same draws — for small and large samples of small and large pools.
  for (const std::uint64_t seed : {1ull, 22ull, 333ull}) {
    for (const auto& [population, count] :
         {std::pair<std::size_t, std::size_t>{10000, 16},
          {4096, 64},
          {129, 16},
          {200, 1},
          {64, 40},
          {10, 10}}) {
      RngStream sparse_rng(seed);
      const auto sparse =
          sample_without_replacement(sparse_rng, population, count);
      // Dense reference with a duplicated stream.
      RngStream dense_rng(seed);
      std::vector<std::uint32_t> pool(population);
      std::iota(pool.begin(), pool.end(), 0u);
      for (std::size_t i = 0; i < count; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    dense_rng.uniform_index(population - i));
        std::swap(pool[i], pool[j]);
      }
      pool.resize(count);
      std::sort(pool.begin(), pool.end());
      EXPECT_EQ(sparse, pool) << "seed=" << seed << " n=" << population;
      // Same RNG consumption: both streams continue in lockstep.
      EXPECT_EQ(sparse_rng.next_u64(), dense_rng.next_u64());
    }
  }
}

TEST(RngStream, SampleLeavesTheCallersStreamWhereTheReferenceDrawLeavesIt) {
  // The draw runs on a local copy of the caller's stream and writes it
  // back.  Against a reference that draws through its own stream, every
  // take from 0 to the pool size must select the same indices and leave
  // both streams in the same state — one stream per pool size, carried
  // across calls, so each call also starts from whatever scratch the
  // previous (differently sized) call left behind.
  std::vector<std::uint32_t> out{99, 98, 97};  // stale contents are dropped.
  for (const std::size_t population :
       {std::size_t{1}, std::size_t{63}, std::size_t{64}, std::size_t{150},
        std::size_t{1500}, std::size_t{2048}}) {
    RngStream rng(population * 7 + 1);
    RngStream reference_rng = rng;
    std::vector<std::uint32_t> pool(population);
    for (std::size_t take = 0; take <= population; ++take) {
      apr::sample_from_pool_indexed(population, take, rng, out);
      std::iota(pool.begin(), pool.end(), 0u);
      for (std::size_t i = 0; i < take; ++i) {
        const std::size_t j =
            i + static_cast<std::size_t>(
                    reference_rng.uniform_index(population - i));
        std::swap(pool[i], pool[j]);
      }
      std::vector<std::uint32_t> expected = pool;
      expected.resize(take);
      std::sort(expected.begin(), expected.end());
      ASSERT_EQ(out, expected) << "n=" << population << " take=" << take;
      ASSERT_EQ(rng.state(), reference_rng.state())
          << "n=" << population << " take=" << take;
    }
  }
}

TEST(RngStream, SparseSampleIsDistinctAndInRange) {
  RngStream rng(23);
  for (int trial = 0; trial < 200; ++trial) {
    const auto sample = sample_without_replacement(rng, 10000, 16);
    ASSERT_EQ(sample.size(), 16u);
    const std::set<std::uint32_t> unique(sample.begin(), sample.end());
    EXPECT_EQ(unique.size(), 16u);
    for (const auto s : sample) EXPECT_LT(s, 10000u);
  }
}

TEST(RngStream, SparseSampleIsUniform) {
  // A small sample of a larger population: every index should appear with
  // frequency count / population.
  RngStream rng(29);
  std::vector<int> counts(64, 0);
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : sample_without_replacement(rng, 64, 4)) ++counts[i];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 4.0 / 64.0, 0.01);
  }
}

TEST(RngStream, SampleWithoutReplacementFullPopulation) {
  RngStream rng(16);
  const auto sample = sample_without_replacement(rng, 10, 10);
  std::set<std::uint32_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 10u);
}

TEST(RngStream, SampleWithoutReplacementClampsToPopulation) {
  RngStream rng(24);
  const auto sample = sample_without_replacement(rng, 7, 50);
  const std::vector<std::uint32_t> all = {0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(sample, all);
  EXPECT_TRUE(sample_without_replacement(rng, 0, 5).empty());
}

TEST(RngStream, SampleWithoutReplacementIsUniform) {
  RngStream rng(17);
  std::vector<int> counts(10, 0);
  constexpr int kTrials = 30000;
  for (int t = 0; t < kTrials; ++t) {
    for (const auto i : sample_without_replacement(rng, 10, 3)) ++counts[i];
  }
  for (const int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / kTrials, 0.3, 0.02);
  }
}

TEST(RngStream, SplitProducesIndependentStreams) {
  RngStream parent(18);
  RngStream child1 = parent.split();
  RngStream child2 = parent.split();
  // Children differ from each other and correlate with neither the parent
  // nor each other over a long window.
  int matches = 0;
  for (int i = 0; i < 1000; ++i) {
    if (child1.next_u64() == child2.next_u64()) ++matches;
  }
  EXPECT_EQ(matches, 0);
}

TEST(RngStream, SplitIsDeterministicFromParentSeed) {
  RngStream p1(20);
  RngStream p2(20);
  RngStream c1 = p1.split();
  RngStream c2 = p2.split();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(c1.next_u64(), c2.next_u64());
}

// Property sweep: Lemire index sampling stays unbiased across bounds.
class UniformIndexSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(UniformIndexSweep, MeanMatchesHalfBound) {
  const std::uint64_t bound = GetParam();
  RngStream rng(21 + bound);
  double sum = 0.0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    sum += static_cast<double>(rng.uniform_index(bound));
  }
  const double expected = static_cast<double>(bound - 1) / 2.0;
  EXPECT_NEAR(sum / kSamples, expected, 0.02 * static_cast<double>(bound) + 0.5);
}

INSTANTIATE_TEST_SUITE_P(Bounds, UniformIndexSweep,
                         ::testing::Values(2, 3, 7, 64, 1000, 4096, 1000000));

}  // namespace
}  // namespace mwr::util
