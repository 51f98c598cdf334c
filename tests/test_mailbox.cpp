// Unit tests for parallel/mailbox: matching semantics, ordering, and
// concurrent producers.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "parallel/mailbox.hpp"

namespace mwr::parallel {
namespace {

TEST(Mailbox, DeliversInFifoOrder) {
  Mailbox box;
  box.push({0, 1, {1.0}});
  box.push({0, 1, {2.0}});
  EXPECT_DOUBLE_EQ(box.recv().payload[0], 1.0);
  EXPECT_DOUBLE_EQ(box.recv().payload[0], 2.0);
}

TEST(Mailbox, TagFilterSkipsNonMatching) {
  Mailbox box;
  box.push({0, 1, {1.0}});
  box.push({0, 2, {2.0}});
  const Message m = box.recv(kAnySource, 2);
  EXPECT_DOUBLE_EQ(m.payload[0], 2.0);
  // The skipped message stays queued.
  EXPECT_DOUBLE_EQ(box.recv().payload[0], 1.0);
  EXPECT_FALSE(box.try_recv().has_value());
}

TEST(Mailbox, SourceFilterSkipsNonMatching) {
  Mailbox box;
  box.push({3, 0, {3.0}});
  box.push({5, 0, {5.0}});
  const Message m = box.recv(5, kAnyTag);
  EXPECT_EQ(m.source, 5);
  EXPECT_DOUBLE_EQ(m.payload[0], 5.0);
}

TEST(Mailbox, NonOvertakingPerChannel) {
  Mailbox box;
  box.push({1, 7, {10.0}});
  box.push({2, 7, {99.0}});
  box.push({1, 7, {20.0}});
  EXPECT_DOUBLE_EQ(box.recv(1, 7).payload[0], 10.0);
  EXPECT_DOUBLE_EQ(box.recv(1, 7).payload[0], 20.0);
}

TEST(Mailbox, TryRecvReturnsNulloptWhenEmpty) {
  Mailbox box;
  EXPECT_FALSE(box.try_recv().has_value());
  box.push({0, 0, {}});
  EXPECT_TRUE(box.try_recv().has_value());
  EXPECT_FALSE(box.try_recv().has_value());
}

TEST(Mailbox, TryRecvHonorsFilters) {
  Mailbox box;
  box.push({1, 1, {}});
  EXPECT_FALSE(box.try_recv(2, kAnyTag).has_value());
  EXPECT_FALSE(box.try_recv(kAnySource, 9).has_value());
  EXPECT_TRUE(box.try_recv(1, 1).has_value());
}

TEST(Mailbox, RecvBlocksUntilPush) {
  Mailbox box;
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    box.push({4, 2, {7.0}});
  });
  const Message m = box.recv(4, 2);  // blocks until the producer runs
  EXPECT_DOUBLE_EQ(m.payload[0], 7.0);
  producer.join();
}

TEST(Mailbox, ConcurrentProducersLoseNothing) {
  Mailbox box;
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 250;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&box, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        box.push({p, 0, {static_cast<double>(i)}});
      }
    });
  }
  for (auto& t : producers) t.join();
  // Per-source FIFO: payloads from each producer arrive in order.
  std::vector<int> next(kProducers, 0);
  for (int i = 0; i < kProducers * kPerProducer; ++i) {
    const Message m = box.recv();
    EXPECT_EQ(static_cast<int>(m.payload[0]), next[m.source]);
    ++next[static_cast<std::size_t>(m.source)];
  }
  EXPECT_FALSE(box.try_recv().has_value());
}

TEST(PayloadVec, SmallPayloadsStayInline) {
  const PayloadVec empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_FALSE(empty.spilled());

  const PayloadVec small{1.0, 2.0, 3.0, 4.0};
  EXPECT_EQ(small.size(), 4u);
  EXPECT_FALSE(small.spilled());
  EXPECT_DOUBLE_EQ(small[0], 1.0);
  EXPECT_DOUBLE_EQ(small.at(3), 4.0);
  EXPECT_THROW((void)small.at(4), std::out_of_range);
}

TEST(PayloadVec, LargePayloadsSpillToHeap) {
  const PayloadVec large{1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(large.size(), 5u);
  EXPECT_TRUE(large.spilled());
  EXPECT_DOUBLE_EQ(large[4], 5.0);

  // Copies are deep; a move steals the heap buffer and leaves the source
  // empty rather than sized over a buffer it no longer owns.
  PayloadVec copy(large);
  EXPECT_NE(copy.data(), large.data());
  EXPECT_EQ(copy.to_vector(), large.to_vector());
  const double* buffer = copy.data();
  PayloadVec moved(std::move(copy));
  EXPECT_EQ(moved.data(), buffer);
  EXPECT_TRUE(copy.empty());  // NOLINT(bugprone-use-after-move)
  PayloadVec assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.data(), buffer);
  EXPECT_TRUE(moved.empty());  // NOLINT(bugprone-use-after-move)
}

TEST(PayloadVec, RoundTripsThroughVectorAtEitherSize) {
  for (const std::size_t n : {0u, 3u, 4u, 5u, 64u}) {
    std::vector<double> values(n);
    for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
    PayloadVec payload(values);
    EXPECT_EQ(payload.size(), n);
    EXPECT_EQ(payload.spilled(), n > PayloadVec::kInlineDoubles);
    const std::vector<double> back = std::move(payload);
    EXPECT_EQ(back, values);
  }
}

TEST(PayloadVec, IteratorsCoverTheWholePayload) {
  const PayloadVec payload{2.0, 4.0, 8.0};
  double sum = 0.0;
  for (const double v : payload) sum += v;
  EXPECT_DOUBLE_EQ(sum, 14.0);
}

TEST(Mailbox, InlinePayloadSurvivesQueueing) {
  Mailbox box;
  box.push({0, 0, {1.5, 2.5}});
  const Message m = box.recv();
  EXPECT_FALSE(m.payload.spilled());
  EXPECT_DOUBLE_EQ(m.payload[0], 1.5);
  EXPECT_DOUBLE_EQ(m.payload[1], 2.5);
}

}  // namespace
}  // namespace mwr::parallel
