// Unit tests for parallel/barrier: generation counting, reuse, and a fast
// party blocking until the slowest one arrives.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "parallel/barrier.hpp"

namespace mwr::parallel {
namespace {

TEST(CountingBarrier, RejectsZeroParties) {
  EXPECT_THROW(CountingBarrier(0), std::invalid_argument);
}

TEST(CountingBarrier, SinglePartyNeverBlocks) {
  CountingBarrier barrier(1);
  for (int i = 0; i < 10; ++i) barrier.arrive_and_wait();
  EXPECT_EQ(barrier.generations(), 10u);
}

TEST(CountingBarrier, AllPartiesPassTogether) {
  constexpr std::size_t kParties = 4;
  CountingBarrier barrier(kParties);
  std::atomic<int> before{0};
  std::atomic<int> after{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      before.fetch_add(1);
      barrier.arrive_and_wait();
      // Everyone must have arrived before anyone proceeds.
      EXPECT_EQ(before.load(), static_cast<int>(kParties));
      after.fetch_add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(after.load(), static_cast<int>(kParties));
  EXPECT_EQ(barrier.generations(), 1u);
}

TEST(CountingBarrier, IsReusableAcrossGenerations) {
  constexpr std::size_t kParties = 3;
  constexpr int kRounds = 50;
  CountingBarrier barrier(kParties);
  std::atomic<int> counter{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        counter.fetch_add(1);
        barrier.arrive_and_wait();
        // Between generations the counter is an exact multiple of parties.
        EXPECT_EQ(counter.load() % kParties, 0u);
        barrier.arrive_and_wait();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(barrier.generations(), 2u * kRounds);
}

TEST(CountingBarrier, WaitTimeAccumulatesWhenOnePartyIsSlow) {
  CountingBarrier barrier(2);
  double fast_wait_seconds = 0.0;
  std::thread fast([&] {
    const auto arrival = std::chrono::steady_clock::now();
    barrier.arrive_and_wait();
    fast_wait_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - arrival)
                            .count();
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  barrier.arrive_and_wait();
  fast.join();
  // The fast thread waited ~50ms for the slow one.
  EXPECT_GE(fast_wait_seconds, 0.03);
}

TEST(CountingBarrier, PartiesAccessor) {
  CountingBarrier barrier(7);
  EXPECT_EQ(barrier.parties(), 7u);
}

TEST(CountingBarrier, CompletionRunsOncePerGenerationBeforeRelease) {
  constexpr std::size_t kParties = 4;
  constexpr int kRounds = 25;
  CountingBarrier barrier(kParties);
  std::atomic<int> arrived{0};
  std::atomic<int> completions{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kParties; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        arrived.fetch_add(1);
        barrier.arrive_and_wait([&] {
          // The completion sees every party arrived and none released:
          // the per-generation bookkeeping slot.
          EXPECT_EQ(arrived.load() % kParties, 0u);
          completions.fetch_add(1);
        });
        EXPECT_GE(completions.load(), r + 1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(completions.load(), kRounds);
  EXPECT_EQ(barrier.generations(), static_cast<std::uint64_t>(kRounds));
}

}  // namespace
}  // namespace mwr::parallel
