// Metric primitives for the observability layer: lock-free counters and
// gauges, fixed-bucket histograms, and an RAII timer that feeds them.
//
// The paper's evaluation is entirely about counted quantities — update
// cycles to convergence (Table II), oracle probes and CPU-iterations
// (Table IV), per-cycle congestion (Table I) — so the primitives mirror
// those shapes: monotone Counters for cycles/probes/messages, Gauges for
// point-in-time values and high-water marks, Histograms for latency and
// per-worker load distributions.  All mutation paths are single atomic
// RMW operations (relaxed ordering: metrics never synchronize program
// state), cheap enough for the per-message and per-task hot paths.
//
// Instances are normally owned by a MetricsRegistry (obs/registry.hpp),
// which hands out stable references and serializes snapshots to JSON.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

namespace mwr::obs {

namespace detail {
/// fetch_add for atomic<double> via CAS (portable across libstdc++
/// versions that lack C++20 atomic floating-point RMW).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

/// Monotone max update via CAS; no-op when `value` does not exceed it.
inline void atomic_max(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (current < value && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

inline void atomic_min(std::atomic<double>& target, double value) noexcept {
  double current = target.load(std::memory_order_relaxed);
  while (current > value && !target.compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}
}  // namespace detail

/// Monotonically-increasing event count (probes, cycles, messages).
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time value: set, accumulate, or track a high-water mark.
class Gauge {
 public:
  void set(double v) noexcept { value_.store(v, std::memory_order_relaxed); }
  void add(double delta) noexcept { detail::atomic_add(value_, delta); }
  /// Raises the gauge to `v` if above the current value (queue-depth /
  /// congestion high-water marks).
  void record_max(double v) noexcept { detail::atomic_max(value_, v); }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Fixed-bucket histogram with cumulative-friendly semantics: bucket i
/// counts observations v <= upper_bounds[i] (first matching bucket), and
/// one overflow bucket catches everything above the last bound.  Also
/// tracks count, sum, min, and max so snapshots can report means and
/// tails without reconfiguring buckets.
class Histogram {
 public:
  /// `upper_bounds` must be non-empty and strictly increasing; throws
  /// std::invalid_argument otherwise.
  explicit Histogram(std::vector<double> upper_bounds);

  void observe(double v) noexcept;
  /// Observes every value in `values`: one atomic update per run of
  /// values in the same bucket and one per summary field, where observing
  /// them one by one would pay all of them per value.
  void observe(std::span<const double> values) noexcept;

  [[nodiscard]] const std::vector<double>& upper_bounds() const noexcept {
    return bounds_;
  }
  /// Observations in bucket i; i == upper_bounds().size() is the overflow
  /// bucket.
  [[nodiscard]] std::uint64_t bucket_count(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] double sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  /// Smallest / largest observation; 0 when empty.
  [[nodiscard]] double min() const noexcept;
  [[nodiscard]] double max() const noexcept;
  [[nodiscard]] double mean() const noexcept;

  void reset() noexcept;

  /// `count` bounds starting at `start`, each `factor` times the last —
  /// the standard latency-bucket layout (factor > 1, start > 0).
  [[nodiscard]] static std::vector<double> exponential_bounds(
      double start, double factor, std::size_t count);

 private:
  std::vector<double> bounds_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> buckets_;  // bounds + overflow
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_;
  std::atomic<double> max_;
};

/// RAII stopwatch: records elapsed wall-clock seconds into a histogram at
/// scope exit.  Wrap one update cycle / precompute phase / probe batch:
///
///   { obs::ScopedTimer t(registry.histogram("phase.online.seconds")); ... }
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& sink) noexcept
      : sink_(&sink), start_(Clock::now()) {}
  ~ScopedTimer() {
    if (sink_ != nullptr) sink_->observe(elapsed_seconds());
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

  /// Detaches the timer: nothing is recorded at destruction.
  void cancel() noexcept { sink_ = nullptr; }

 private:
  using Clock = std::chrono::steady_clock;
  Histogram* sink_;
  Clock::time_point start_;
};

}  // namespace mwr::obs
