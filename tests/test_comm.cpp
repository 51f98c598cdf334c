// Unit tests for parallel/comm: SPMD execution, point-to-point messaging,
// collectives, congestion attribution, and error propagation.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "obs/registry.hpp"
#include "parallel/comm.hpp"

namespace mwr::parallel {
namespace {

TEST(CommWorld, RejectsZeroRanks) {
  EXPECT_THROW(CommWorld(0), std::invalid_argument);
}

TEST(CommWorld, RunsOneBodyPerRank) {
  CommWorld world(6);
  std::atomic<int> mask{0};
  world.run([&](Comm& comm) { mask.fetch_or(1 << comm.rank()); });
  EXPECT_EQ(mask.load(), 0b111111);
}

TEST(CommWorld, RankAndSizeAreConsistent) {
  CommWorld world(4);
  world.run([&](Comm& comm) {
    EXPECT_EQ(comm.size(), 4);
    EXPECT_GE(comm.rank(), 0);
    EXPECT_LT(comm.rank(), 4);
  });
}

TEST(Comm, PointToPointRoundTrip) {
  CommWorld world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 5, {1.0, 2.0, 3.0});
      const Message reply = comm.recv(1, 6);
      EXPECT_DOUBLE_EQ(reply.payload.at(0), 6.0);
    } else {
      const Message m = comm.recv(0, 5);
      double sum = std::accumulate(m.payload.begin(), m.payload.end(), 0.0);
      comm.send(0, 6, {sum});
    }
  });
}

TEST(Comm, SendToBadDestinationThrows) {
  CommWorld world(2);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 0) comm.send(9, 0, {});
  }),
               std::out_of_range);
}

TEST(Comm, BodyExceptionPropagatesToCaller) {
  CommWorld world(3);
  EXPECT_THROW(world.run([&](Comm& comm) {
    if (comm.rank() == 1) throw std::runtime_error("rank 1 failed");
  }),
               std::runtime_error);
}

TEST(Comm, AllreduceSumsElementwiseOnEveryRank) {
  CommWorld world(4);
  world.run([&](Comm& comm) {
    const double r = static_cast<double>(comm.rank());
    const auto sum = comm.allreduce_sum({r, 1.0});
    ASSERT_EQ(sum.size(), 2u);
    EXPECT_DOUBLE_EQ(sum[0], 0.0 + 1.0 + 2.0 + 3.0);
    EXPECT_DOUBLE_EQ(sum[1], 4.0);

    // 16 doubles overflow PayloadVec's inline buffer, so every
    // contribution and every copy of the root's sum travels spilled.
    std::vector<double> wide;
    for (int i = 0; i < 16; ++i) wide.push_back(0.5 * i + r);
    const auto wide_sum = comm.allreduce_sum(std::move(wide));
    ASSERT_EQ(wide_sum.size(), 16u);
    for (int i = 0; i < 16; ++i) {
      EXPECT_DOUBLE_EQ(wide_sum[static_cast<std::size_t>(i)], 2.0 * i + 6.0);
    }
  });
}

TEST(Comm, BarrierSynchronizesPhases) {
  CommWorld world(4);
  std::atomic<int> phase1{0};
  world.run([&](Comm& comm) {
    phase1.fetch_add(1);
    comm.barrier();
    EXPECT_EQ(phase1.load(), 4);
    comm.barrier();
  });
}

TEST(Comm, CongestionAttributesToDestination) {
  CommWorld world(3);
  world.run([&](Comm& comm) {
    if (comm.rank() != 0) comm.send(0, 1, {});
    comm.barrier();
    if (comm.rank() == 0) {
      while (comm.try_recv()) {
      }
    }
    comm.barrier_close_cycle();
  });
  EXPECT_EQ(world.congestion().total_messages(), 2u);
  EXPECT_DOUBLE_EQ(world.congestion().max_per_cycle().mean(), 2.0);
}

TEST(Comm, BarrierCloseCycleMatchesBracketedClose) {
  // barrier_close_cycle must record exactly the per-cycle maxima of a
  // barrier / rank-0 close / barrier bracket.  In cycle c rank r sends r + c
  // messages to (r + c) % size: each rank has exactly one sender, so the
  // heaviest-hit rank absorbs 5 + c messages — the maxima 5, 6, 7, 8 the
  // bracketed close records.
  constexpr std::size_t kRanks = 6;
  constexpr int kCycles = 4;
  std::vector<double> maxima;
  CommWorld world(kRanks);
  world.run([&](Comm& comm) {
    for (int c = 0; c < kCycles; ++c) {
      for (int i = 0; i < comm.rank() + c; ++i) {
        comm.send((comm.rank() + c) % comm.size(), 1, {});
      }
      while (comm.try_recv()) {
      }
      comm.barrier_close_cycle();
      // The running max rises every cycle, so it is this cycle's maximum;
      // the next close waits for rank 0, so the read cannot race it.
      if (comm.rank() == 0) {
        maxima.push_back(world.congestion().max_per_cycle().max());
      }
    }
  });

  EXPECT_EQ(maxima, (std::vector<double>{5.0, 6.0, 7.0, 8.0}));
  EXPECT_EQ(world.congestion().total_messages(), 96u);
  EXPECT_EQ(world.congestion().max_per_cycle().count(), 4u);
  EXPECT_DOUBLE_EQ(world.congestion().max_per_cycle().mean(), 6.5);
}

TEST(CommWorld, ExplicitPoliciesRunAllRanks) {
  for (const RunPolicy policy :
       {RunPolicy::thread_per_rank(), RunPolicy::superstep(1),
        RunPolicy::superstep(2)}) {
    CommWorld world(5, policy);
    std::atomic<int> mask{0};
    world.run([&](Comm& comm) {
      mask.fetch_or(1 << comm.rank());
      comm.barrier();
    });
    EXPECT_EQ(mask.load(), 0b11111);
  }
}

TEST(CommWorld, DefaultPolicyRunsSmallWorldsOnTheEngine) {
  // Two ranks fit any worker pool, yet the default policy still runs them
  // as engine fibers.  Asserted first: on thread-per-rank the second world
  // below would hang instead of failing.
  obs::Counter& slices =
      obs::MetricsRegistry::global().counter("spmd.engine.fiber_slices");
  const std::uint64_t before = slices.value();
  CommWorld benign(2);
  benign.run([](Comm& comm) { comm.barrier(); });
  ASSERT_GT(slices.value(), before) << "a default 2-rank world ran "
                                       "thread-per-rank";

  // Rank 0 throws while rank 1 waits for a message rank 0 never sends: the
  // engine unwinds rank 1 and run() rethrows rank 0's exception.
  CommWorld failing(2);
  EXPECT_THROW(failing.run([](Comm& comm) {
    if (comm.rank() == 0) throw std::logic_error("rank 0 failed");
    (void)comm.recv(0, 7);
  }),
               std::logic_error);
}

TEST(Comm, UntrackedSendSkipsCongestion) {
  CommWorld world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send_untracked(1, 1, {9.0});
    } else {
      EXPECT_DOUBLE_EQ(comm.recv(0, 1).payload.at(0), 9.0);
    }
  });
  EXPECT_EQ(world.congestion().total_messages(), 0u);
}

TEST(Comm, TryRecvSeesOnlyDeliveredMessages) {
  CommWorld world(2);
  world.run([&](Comm& comm) {
    if (comm.rank() == 0) {
      comm.send(1, 3, {1.0});
    }
    comm.barrier();
    if (comm.rank() == 1) {
      const auto m = comm.try_recv(0, 3);
      ASSERT_TRUE(m.has_value());
      EXPECT_FALSE(comm.try_recv(0, 3).has_value());
    }
  });
}

// Stress sweep: collectives keep working across world sizes.
class CommSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CommSweep, AllreduceIdentityOverManyRounds) {
  CommWorld world(GetParam());
  world.run([&](Comm& comm) {
    for (int round = 0; round < 20; ++round) {
      const auto sum = comm.allreduce_sum({1.0});
      EXPECT_DOUBLE_EQ(sum.at(0), static_cast<double>(comm.size()));
      comm.barrier();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(WorldSizes, CommSweep, ::testing::Values(1, 2, 5, 16));

}  // namespace
}  // namespace mwr::parallel
