#include "obs/registry.hpp"

#include <utility>

namespace mwr::obs {

Counter& MetricsRegistry::counter(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  util::MutexLock lock(mutex_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upper_bounds) {
  util::MutexLock lock(mutex_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<Histogram>(std::move(upper_bounds));
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  return histogram(name, default_latency_bounds());
}

std::vector<double> MetricsRegistry::default_latency_bounds() {
  // 1us .. ~134s in powers of 4: wide enough for a per-message push and a
  // full precompute phase to land in interior buckets.
  return Histogram::exponential_bounds(1e-6, 4.0, 14);
}

void MetricsRegistry::reset() {
  util::MutexLock lock(mutex_);
  for (auto& [name, counter] : counters_) counter->reset();
  for (auto& [name, gauge] : gauges_) gauge->reset();
  for (auto& [name, histogram] : histograms_) histogram->reset();
}

namespace {
bool has_prefix(const std::string& name, const std::string& prefix) {
  return name.size() >= prefix.size() &&
         name.compare(0, prefix.size(), prefix) == 0;
}
}  // namespace

JsonValue MetricsRegistry::to_json() const { return to_json_filtered(""); }

JsonValue MetricsRegistry::to_json_filtered(const std::string& prefix) const {
  util::MutexLock lock(mutex_);
  JsonValue root = JsonValue::object();
  root.set("schema", "mwr-metrics-v1");

  JsonValue counters = JsonValue::object();
  for (const auto& [name, counter] : counters_) {
    if (!has_prefix(name, prefix)) continue;
    counters.set(name, counter->value());
  }
  root.set("counters", std::move(counters));

  JsonValue gauges = JsonValue::object();
  for (const auto& [name, gauge] : gauges_) {
    if (!has_prefix(name, prefix)) continue;
    gauges.set(name, gauge->value());
  }
  root.set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::object();
  for (const auto& [name, histogram] : histograms_) {
    if (!has_prefix(name, prefix)) continue;
    JsonValue h = JsonValue::object();
    JsonValue le = JsonValue::array();
    for (const double bound : histogram->upper_bounds()) le.push_back(bound);
    h.set("le", std::move(le));
    JsonValue counts = JsonValue::array();
    for (std::size_t i = 0; i <= histogram->upper_bounds().size(); ++i) {
      counts.push_back(histogram->bucket_count(i));
    }
    h.set("counts", std::move(counts));
    h.set("count", histogram->count());
    h.set("sum", histogram->sum());
    h.set("min", histogram->min());
    h.set("max", histogram->max());
    histograms.set(name, std::move(h));
  }
  root.set("histograms", std::move(histograms));
  return root;
}

void MetricsRegistry::write_json(const std::string& path) const {
  write_json_file(to_json(), path);
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

}  // namespace mwr::obs
