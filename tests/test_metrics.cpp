// Tests for the observability subsystem (obs/): metric primitives under
// concurrency, histogram bucket semantics, the JSON document model, and
// registry snapshots round-tripping through the serialization helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/registry.hpp"
#include "obs/serialization.hpp"

namespace mwr::obs {
namespace {

TEST(Counter, ConcurrentIncrementsSumExactly) {
  Counter counter;
  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 50'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(Counter, AddWithArgumentAndReset) {
  Counter counter;
  counter.add(41);
  counter.add();
  EXPECT_EQ(counter.value(), 42u);
  counter.reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddAndRecordMax) {
  Gauge gauge;
  gauge.set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.add(1.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.record_max(3.0);  // below current: no-op
  EXPECT_DOUBLE_EQ(gauge.value(), 4.0);
  gauge.record_max(7.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 7.0);
}

TEST(Gauge, ConcurrentAddsSumExactly) {
  Gauge gauge;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&gauge] {
      for (int i = 0; i < kPerThread; ++i) gauge.add(1.0);
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_DOUBLE_EQ(gauge.value(), kThreads * kPerThread);
}

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({1.0, 2.0, 4.0});
  h.observe(0.5);   // <= 1.0  -> bucket 0
  h.observe(1.0);   // <= 1.0  -> bucket 0 (bound is inclusive)
  h.observe(1.001); // <= 2.0  -> bucket 1
  h.observe(4.0);   // <= 4.0  -> bucket 2
  h.observe(100.0); // overflow
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(1), 1u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(3), 1u);  // overflow bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 100.0);
  EXPECT_DOUBLE_EQ(h.sum(), 0.5 + 1.0 + 1.001 + 4.0 + 100.0);
}

TEST(Histogram, EmptyHistogramReportsZeros) {
  Histogram h({1.0});
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.min(), 0.0);
  EXPECT_DOUBLE_EQ(h.max(), 0.0);
  EXPECT_DOUBLE_EQ(h.mean(), 0.0);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(Histogram({1.0, 1.0}), std::invalid_argument);
}

TEST(Histogram, ExponentialBoundsLayout) {
  const auto bounds = Histogram::exponential_bounds(1e-3, 10.0, 4);
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1e-3);
  EXPECT_DOUBLE_EQ(bounds[1], 1e-2);
  EXPECT_DOUBLE_EQ(bounds[2], 1e-1);
  EXPECT_DOUBLE_EQ(bounds[3], 1.0);
  EXPECT_THROW(Histogram::exponential_bounds(0.0, 2.0, 3),
               std::invalid_argument);
  EXPECT_THROW(Histogram::exponential_bounds(1.0, 1.0, 3),
               std::invalid_argument);
}

TEST(Histogram, ConcurrentObservationsAreAllCounted) {
  Histogram h(Histogram::exponential_bounds(1.0, 2.0, 8));
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe(static_cast<double>(t + 1));
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i <= h.upper_bounds().size(); ++i) {
    bucket_total += h.bucket_count(i);
  }
  EXPECT_EQ(bucket_total, h.count());
  EXPECT_DOUBLE_EQ(h.min(), 1.0);
  EXPECT_DOUBLE_EQ(h.max(), kThreads);
}

TEST(ScopedTimer, FeedsHistogramOnScopeExit) {
  Histogram h(MetricsRegistry::default_latency_bounds());
  {
    ScopedTimer timer(h);
    EXPECT_GE(timer.elapsed_seconds(), 0.0);
  }
  EXPECT_EQ(h.count(), 1u);
  EXPECT_GE(h.sum(), 0.0);
}

TEST(ScopedTimer, CancelSuppressesTheObservation) {
  Histogram h(MetricsRegistry::default_latency_bounds());
  {
    ScopedTimer timer(h);
    timer.cancel();
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(Json, DumpAndParseScalars) {
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(nullptr).dump(), "null");
  EXPECT_EQ(JsonValue(42.0).dump(), "42");
  EXPECT_EQ(JsonValue("hi\n\"there\"").dump(), "\"hi\\n\\\"there\\\"\"");
  EXPECT_TRUE(JsonValue::parse("true").as_bool());
  EXPECT_DOUBLE_EQ(JsonValue::parse("-1.5e3").as_double(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"a\\u0041b\"").as_string(), "aAb");
}

TEST(Json, ObjectsPreserveInsertionOrder) {
  JsonValue obj = JsonValue::object();
  obj.set("zebra", 1.0);
  obj.set("alpha", 2.0);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2}");
  obj.set("zebra", 3.0);  // overwrite keeps position
  EXPECT_EQ(obj.dump(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(Json, RoundTripPreservesStructureAndPrecision) {
  JsonValue root = JsonValue::object();
  root.set("pi", 3.141592653589793);
  root.set("big", 9007199254740991.0);
  root.set("name", "metrics \"v1\"\t\\");
  JsonValue arr = JsonValue::array();
  arr.push_back(1.0);
  arr.push_back(false);
  arr.push_back(nullptr);
  root.set("items", std::move(arr));

  const JsonValue parsed = JsonValue::parse(root.dump(2));
  EXPECT_DOUBLE_EQ(parsed.at("pi").as_double(), 3.141592653589793);
  EXPECT_DOUBLE_EQ(parsed.at("big").as_double(), 9007199254740991.0);
  EXPECT_EQ(parsed.at("name").as_string(), "metrics \"v1\"\t\\");
  ASSERT_EQ(parsed.at("items").size(), 3u);
  EXPECT_DOUBLE_EQ(parsed.at("items").as_array()[0].as_double(), 1.0);
  EXPECT_FALSE(parsed.at("items").as_array()[1].as_bool());
  EXPECT_TRUE(parsed.at("items").as_array()[2].is_null());
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(parsed.dump(), JsonValue::parse(parsed.dump()).dump());
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("tru"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("{} extra"), std::runtime_error);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::runtime_error);
}

TEST(Registry, HandlesAreStableAndSharedByName) {
  MetricsRegistry registry;
  Counter& a = registry.counter("x.count");
  Counter& b = registry.counter("x.count");
  EXPECT_EQ(&a, &b);
  a.add(3);
  EXPECT_EQ(registry.counter("x.count").value(), 3u);
  // reset() zeroes but never invalidates.
  registry.reset();
  EXPECT_EQ(a.value(), 0u);
  a.add(1);
  EXPECT_EQ(b.value(), 1u);
}

TEST(Registry, HistogramFirstRegistrationWins) {
  MetricsRegistry registry;
  Histogram& a = registry.histogram("h", {1.0, 2.0});
  Histogram& b = registry.histogram("h", {5.0});
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.upper_bounds().size(), 2u);
}

TEST(Registry, SnapshotRoundTripsThroughJson) {
  MetricsRegistry registry;
  registry.counter("repair.online.probes").add(192);
  registry.gauge("repair.repaired").set(1.0);
  Histogram& h = registry.histogram("phase.online.seconds", {0.1, 1.0});
  h.observe(0.05);
  h.observe(0.5);
  h.observe(10.0);

  const JsonValue parsed =
      JsonValue::parse(registry.to_json().dump(/*indent=*/2));
  EXPECT_EQ(parsed.at("schema").as_string(), "mwr-metrics-v1");
  EXPECT_DOUBLE_EQ(
      parsed.at("counters").at("repair.online.probes").as_double(), 192.0);
  EXPECT_DOUBLE_EQ(parsed.at("gauges").at("repair.repaired").as_double(),
                   1.0);
  const JsonValue& hist =
      parsed.at("histograms").at("phase.online.seconds");
  ASSERT_EQ(hist.at("le").size(), 2u);
  ASSERT_EQ(hist.at("counts").size(), 3u);  // 2 bounds + overflow
  EXPECT_DOUBLE_EQ(hist.at("counts").as_array()[0].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("counts").as_array()[1].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("counts").as_array()[2].as_double(), 1.0);
  EXPECT_DOUBLE_EQ(hist.at("count").as_double(), 3.0);
  EXPECT_DOUBLE_EQ(hist.at("min").as_double(), 0.05);
  EXPECT_DOUBLE_EQ(hist.at("max").as_double(), 10.0);
}

TEST(Registry, WriteJsonProducesAParsableFile) {
  MetricsRegistry registry;
  registry.counter("c").add(7);
  const std::string path = ::testing::TempDir() + "mwr_metrics_test.json";
  registry.write_json(path);
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::stringstream buffer;
  buffer << file.rdbuf();
  const JsonValue parsed = JsonValue::parse(buffer.str());
  EXPECT_DOUBLE_EQ(parsed.at("counters").at("c").as_double(), 7.0);
  std::remove(path.c_str());
}

TEST(JsonFile, WriteFailuresThrow) {
  // /dev/full accepts the open and the buffered write; ENOSPC surfaces
  // only when the bytes are flushed, so the writer must flush and close
  // before it checks.
  const JsonValue doc = JsonValue::object();
  if (std::ifstream("/dev/full").good()) {
    EXPECT_THROW(write_json_file(doc, "/dev/full"), std::runtime_error);
    MetricsRegistry registry;
    EXPECT_THROW(registry.write_json("/dev/full"), std::runtime_error);
  }
  EXPECT_THROW(write_json_file(doc, "/nonexistent-dir/out.json"),
               std::runtime_error);
}

TEST(JsonFile, WritesThePrettyPrintedDocument) {
  JsonValue doc = JsonValue::object();
  doc.set("hash", std::uint64_t{70491398494473});
  const std::string path = ::testing::TempDir() + "mwr_json_file_test.json";
  write_json_file(doc, path);
  std::ifstream file(path);
  std::stringstream buffer;
  buffer << file.rdbuf();
  EXPECT_EQ(buffer.str(), doc.dump(/*indent=*/2) + "\n");
  EXPECT_NE(buffer.str().find("70491398494473"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Registry, ConcurrentLookupsAndMutationsAreSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 2'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("shared.count").add(1);
        registry.histogram("shared.seconds").observe(1e-5);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(registry.counter("shared.count").value(),
            kThreads * kPerThread);
  EXPECT_EQ(registry.histogram("shared.seconds").count(),
            kThreads * kPerThread);
}

// Regression (static-analysis bring-up audit): registration, reset() and
// to_json() all walk the registry's guarded maps, so snapshotting while
// other threads register fresh metrics must never crash or emit an
// inconsistent document.  Each snapshot must parse and every counter it
// reports must hold a value that was legal at some instant (here: the
// shared counter only ever grows, and per-name counters are 0 or 1).
TEST(Registry, SnapshotWhileRegisteringStaysConsistent) {
  MetricsRegistry registry;
  constexpr int kWriters = 4;
  constexpr int kPerThread = 300;
  std::atomic<bool> done{false};
  std::atomic<int> bad_snapshots{0};
  std::thread snapshotter([&] {
    double last_shared = 0.0;
    while (!done.load(std::memory_order_relaxed)) {
      const JsonValue parsed =
          JsonValue::parse(registry.to_json().dump(/*indent=*/2));
      if (parsed.at("schema").as_string() != "mwr-metrics-v1") {
        bad_snapshots.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      const JsonValue& counters = parsed.at("counters");
      if (counters.contains("shared.count")) {
        const double shared = counters.at("shared.count").as_double();
        if (shared < last_shared) {
          bad_snapshots.fetch_add(1, std::memory_order_relaxed);
        }
        last_shared = shared;
      }
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&registry, t] {
      for (int i = 0; i < kPerThread; ++i) {
        registry.counter("shared.count").add(1);
        registry
            .counter("writer." + std::to_string(t) + ".item." +
                     std::to_string(i))
            .add(1);
      }
    });
  }
  for (auto& w : writers) w.join();
  done.store(true, std::memory_order_relaxed);
  snapshotter.join();
  EXPECT_EQ(bad_snapshots.load(), 0);
  EXPECT_EQ(registry.counter("shared.count").value(),
            static_cast<std::uint64_t>(kWriters * kPerThread));
}

TEST(Registry, GlobalIsASingleton) {
  EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

}  // namespace
}  // namespace mwr::obs
