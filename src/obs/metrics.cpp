#include "obs/metrics.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace mwr::obs {

Histogram::Histogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  if (bounds_.empty())
    throw std::invalid_argument("Histogram: no bucket bounds");
  if (!std::is_sorted(bounds_.begin(), bounds_.end()) ||
      std::adjacent_find(bounds_.begin(), bounds_.end()) != bounds_.end()) {
    throw std::invalid_argument(
        "Histogram: bounds must be strictly increasing");
  }
  buckets_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
  for (std::size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::observe(double v) noexcept {
  // First bucket whose upper bound admits v; one past the end = overflow.
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  detail::atomic_add(sum_, v);
  detail::atomic_min(min_, v);
  detail::atomic_max(max_, v);
}

void Histogram::observe(std::span<const double> values) noexcept {
  if (values.empty()) return;
  double sum = 0.0;
  double lo = values.front();
  double hi = values.front();
  std::size_t run_index = 0;
  std::uint64_t run = 0;
  for (const double v : values) {
    const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
    const auto index = static_cast<std::size_t>(it - bounds_.begin());
    if (run != 0 && index != run_index) {
      buckets_[run_index].fetch_add(run, std::memory_order_relaxed);
      run = 0;
    }
    run_index = index;
    ++run;
    sum += v;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  buckets_[run_index].fetch_add(run, std::memory_order_relaxed);
  count_.fetch_add(values.size(), std::memory_order_relaxed);
  detail::atomic_add(sum_, sum);
  detail::atomic_min(min_, lo);
  detail::atomic_max(max_, hi);
}

std::uint64_t Histogram::bucket_count(std::size_t i) const {
  if (i > bounds_.size())
    throw std::out_of_range("Histogram::bucket_count: bad bucket index");
  return buckets_[i].load(std::memory_order_relaxed);
}

double Histogram::min() const noexcept {
  const double v = min_.load(std::memory_order_relaxed);
  return count() == 0 ? 0.0 : v;
}

double Histogram::max() const noexcept {
  const double v = max_.load(std::memory_order_relaxed);
  return count() == 0 ? 0.0 : v;
}

double Histogram::mean() const noexcept {
  const std::uint64_t n = count();
  return n == 0 ? 0.0 : sum() / static_cast<double>(n);
}

void Histogram::reset() noexcept {
  for (std::size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
  max_.store(-std::numeric_limits<double>::infinity(),
             std::memory_order_relaxed);
}

std::vector<double> Histogram::exponential_bounds(double start, double factor,
                                                  std::size_t count) {
  if (start <= 0.0 || factor <= 1.0 || count == 0) {
    throw std::invalid_argument(
        "Histogram::exponential_bounds: need start > 0, factor > 1, "
        "count > 0");
  }
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (std::size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

}  // namespace mwr::obs
