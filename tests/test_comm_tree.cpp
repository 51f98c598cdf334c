// Unit tests for the tree-structured allreduce: correctness across world
// sizes (including non-powers-of-two) and its logarithmic congestion
// advantage over the centralized reduction.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "parallel/comm.hpp"

namespace mwr::parallel {
namespace {

class TreeAllreduceSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TreeAllreduceSweep, SumsCorrectlyOnEveryRank) {
  CommWorld world(GetParam());
  world.run([&](Comm& comm) {
    const double r = static_cast<double>(comm.rank());
    const auto sum = comm.allreduce_sum_tree({r, 1.0, -r});
    const auto n = static_cast<double>(comm.size());
    ASSERT_EQ(sum.size(), 3u);
    EXPECT_DOUBLE_EQ(sum[0], n * (n - 1.0) / 2.0);
    EXPECT_DOUBLE_EQ(sum[1], n);
    EXPECT_DOUBLE_EQ(sum[2], -n * (n - 1.0) / 2.0);
  });
}

TEST_P(TreeAllreduceSweep, RepeatedCallsStayConsistent) {
  CommWorld world(GetParam());
  world.run([&](Comm& comm) {
    for (int round = 1; round <= 5; ++round) {
      const auto sum =
          comm.allreduce_sum_tree({static_cast<double>(round)});
      EXPECT_DOUBLE_EQ(sum.at(0),
                       static_cast<double>(round) *
                           static_cast<double>(comm.size()));
      comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, TreeAllreduceSweep,
                         ::testing::Values(1, 2, 3, 5, 6, 8, 13, 16, 31));

// A width past PayloadVec's inline buffer: every tree hop, reduce and
// broadcast, carries a heap payload, and the world closes its cycle after.
TEST(CommArena, TreeAllreduceWithArenaBcastStaysCorrect) {
  CommWorld world(8);
  world.run([&](Comm& comm) {
    std::vector<double> mine(40, static_cast<double>(comm.rank() + 1));
    const std::vector<double> sum = comm.allreduce_sum_tree(mine);
    ASSERT_EQ(sum.size(), 40u);
    for (const double s : sum) ASSERT_DOUBLE_EQ(s, 36.0);  // 1+2+...+8
    comm.barrier_close_cycle();
  });
  EXPECT_EQ(world.congestion().max_per_cycle().count(), 1u);
}

TEST(TreeAllreduce, CongestionIsLogarithmicNotLinear) {
  constexpr std::size_t kRanks = 32;

  // Centralized: root absorbs n-1 messages.
  CommWorld central(kRanks);
  central.run([&](Comm& comm) {
    (void)comm.allreduce_sum({1.0});
    comm.barrier_close_cycle();
  });

  // Tree: any node absorbs at most ceil(log2 n) messages.
  CommWorld tree(kRanks);
  tree.run([&](Comm& comm) {
    (void)comm.allreduce_sum_tree({1.0});
    comm.barrier_close_cycle();
  });

  const double central_max = central.congestion().max_per_cycle().max();
  const double tree_max = tree.congestion().max_per_cycle().max();
  EXPECT_DOUBLE_EQ(central_max, static_cast<double>(kRanks - 1));
  EXPECT_LE(tree_max, std::ceil(std::log2(kRanks)) + 1.0);
  EXPECT_LT(tree_max, central_max / 3.0);
}

}  // namespace
}  // namespace mwr::parallel
