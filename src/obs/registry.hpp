// Process-wide metrics registry: named-metric lookup plus JSON export.
//
// Subsystems grab stable references to their metrics once (handles stay
// valid for the registry's lifetime; reset() zeroes values but never
// invalidates a handle) and mutate them lock-free on the hot path.  The
// run harness snapshots everything at exit with to_json()/write_json(),
// which is the machine-readable artifact the CI pipeline gates on.
//
// Naming convention: dot-separated "<subsystem>.<quantity>[_<unit>]",
// e.g. "repair.online.probes", "spmd.engine.sweeps".
// DESIGN.md §7 maps the names onto the paper's Table II/IV quantities.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/serialization.hpp"
#include "util/sync.hpp"
#include "util/thread_annotations.hpp"

namespace mwr::obs {

class ScopedMetrics;

/// Thread-safe name -> metric map.  Lookups take a mutex (amortize them:
/// fetch handles once, outside loops); the returned references are
/// mutation-safe from any thread.  Counter/gauge/histogram names live in
/// separate namespaces.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Finds or creates the named metric.  References remain valid until
  /// the registry is destroyed.
  [[nodiscard]] Counter& counter(const std::string& name)
      MWR_EXCLUDES(mutex_);
  [[nodiscard]] Gauge& gauge(const std::string& name) MWR_EXCLUDES(mutex_);
  /// For an existing histogram the bounds argument is ignored — the first
  /// registration wins (concurrent users must agree on the layout).
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> upper_bounds)
      MWR_EXCLUDES(mutex_);
  /// Histogram with the default latency layout (1 microsecond to ~2
  /// minutes, powers of 4), the layout for every *_seconds metric.
  [[nodiscard]] Histogram& histogram(const std::string& name)
      MWR_EXCLUDES(mutex_);

  [[nodiscard]] static std::vector<double> default_latency_bounds();

  /// Zeroes every registered metric; handles stay valid.  Call between
  /// independent runs sharing one process (bench replications, tests).
  void reset() MWR_EXCLUDES(mutex_);

  /// Snapshot of every metric:
  ///   {"schema": "mwr-metrics-v1",
  ///    "counters": {name: value, ...},
  ///    "gauges": {name: value, ...},
  ///    "histograms": {name: {"le": [bounds...], "counts": [... overflow],
  ///                          "count": n, "sum": s, "min": m, "max": M}}}
  [[nodiscard]] JsonValue to_json() const MWR_EXCLUDES(mutex_);
  /// Writes the pretty-printed snapshot through write_json_file; throws
  /// std::runtime_error on I/O failure.
  void write_json(const std::string& path) const;

  /// Snapshot restricted to names starting with `prefix` (same shape as
  /// to_json()).  The campaign server uses this with "campaign/<id>/" to
  /// extract one tenant's view from the shared registry.
  [[nodiscard]] JsonValue to_json_filtered(const std::string& prefix) const
      MWR_EXCLUDES(mutex_);

  /// A view over this registry that transparently prefixes every metric
  /// name with "<prefix>/", giving one tenant an isolated namespace over
  /// the shared map (same handles-stay-valid guarantees).
  [[nodiscard]] ScopedMetrics scoped(const std::string& prefix);

  /// The process-wide registry all built-in instrumentation reports to.
  [[nodiscard]] static MetricsRegistry& global();

 private:
  // The maps are guarded; the *metrics* they point to are deliberately
  // not — handles mutate lock-free (relaxed atomics) by design, and the
  // ordered std::map keeps JSON snapshots deterministically sorted.
  mutable util::Mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      MWR_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      MWR_GUARDED_BY(mutex_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      MWR_GUARDED_BY(mutex_);
};

/// Per-tenant prefix view (MetricsRegistry::scoped).  Copyable and cheap;
/// the underlying registry must outlive every view.  Names resolve to
/// "<prefix>/<name>" in the parent, so a server multiplexing campaigns
/// records "campaign/7/repair.online.probes" through the same lock-free
/// handles as everything else, and to_json_filtered("campaign/7/")
/// recovers the tenant's slice.
class ScopedMetrics {
 public:
  ScopedMetrics(MetricsRegistry& registry, std::string prefix)
      : registry_(&registry), prefix_(std::move(prefix)) {
    if (prefix_.empty() || prefix_.back() != '/') prefix_ += '/';
  }

  [[nodiscard]] Counter& counter(const std::string& name) {
    return registry_->counter(prefix_ + name);
  }
  [[nodiscard]] Gauge& gauge(const std::string& name) {
    return registry_->gauge(prefix_ + name);
  }
  [[nodiscard]] Histogram& histogram(const std::string& name,
                                     std::vector<double> upper_bounds) {
    return registry_->histogram(prefix_ + name, std::move(upper_bounds));
  }
  [[nodiscard]] Histogram& histogram(const std::string& name) {
    return registry_->histogram(prefix_ + name);
  }

  /// The tenant's snapshot slice.
  [[nodiscard]] JsonValue to_json() const {
    return registry_->to_json_filtered(prefix_);
  }

  [[nodiscard]] const std::string& prefix() const noexcept { return prefix_; }
  [[nodiscard]] MetricsRegistry& registry() const noexcept {
    return *registry_;
  }

 private:
  MetricsRegistry* registry_;
  std::string prefix_;  // always ends in '/'.
};

inline ScopedMetrics MetricsRegistry::scoped(const std::string& prefix) {
  return ScopedMetrics(*this, prefix);
}

}  // namespace mwr::obs
