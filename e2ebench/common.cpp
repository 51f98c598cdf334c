#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

namespace e2e {

std::size_t bench_threads() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 2);
}

std::uint64_t mix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

void Digest::add(std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xff;
    h_ *= 1099511628211ull;
  }
}

void Digest::add(std::string_view s) noexcept {
  add(static_cast<std::uint64_t>(s.size()));
  for (const char c : s) {
    h_ ^= static_cast<unsigned char>(c);
    h_ *= 1099511628211ull;
  }
}

void Digest::add_double(double v) noexcept {
  add(std::bit_cast<std::uint64_t>(v));
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double child_peak_rss_mb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB.
    }
  }
  return 0.0;
}

double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double rank = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (rank - static_cast<double>(lo));
}

void report_latencies(Report& report, const std::vector<double>& latency_ms) {
  report.metric("latency_p50_ms", percentile(latency_ms, 0.50));
  report.metric("latency_p95_ms", percentile(latency_ms, 0.95));
}

void check_layer_sum(Report& report, const std::string& name, double sum) {
  report.check(name, sum >= kLayerSumMin && sum <= kLayerSumMax,
               std::to_string(sum));
}

void Report::metric(const std::string& name, double value) {
  metrics_[name] = value;
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::digest(const std::string& name, std::uint64_t value) {
  digests_[name] = value;
}

void Report::operations(std::uint64_t attempted, std::uint64_t failed) {
  attempted_ += attempted;
  failed_ += failed;
}

bool Report::ok() const noexcept {
  return std::all_of(checks_.begin(), checks_.end(),
                     [](const Check& c) { return c.ok; });
}

void Report::print(std::ostream& out, bool traced) {
  std::set<std::string> listed;
  const auto emit = [&](const MetricSpec& spec) {
    listed.insert(spec.name);
    const auto it = metrics_.find(spec.name);
    char value[64];
    std::snprintf(value, sizeof value, "%.9g",
                  it == metrics_.end() ? 0.0 : it->second);
    out << workload_ << " " << spec.name << " " << value << " " << spec.unit
        << "\n";
  };
  if (traced) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  for (const auto& [name, value] : metrics_) {
    if (listed.count(name) == 0) check("metric_listed." + name, false);
  }
  for (const auto& [name, value] : digests_) {
    char hex[32];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(value));
    out << "digest " << workload_ << " " << name << " " << hex << "\n";
  }
  for (const Check& c : checks_) {
    out << "check " << workload_ << " " << c.name << " "
        << (c.ok ? "ok" : "FAIL");
    if (!c.detail.empty()) out << " " << c.detail;
    out << "\n";
  }
  out << "operations " << workload_ << " " << attempted_ << " " << failed_
      << "\n";
}

}  // namespace e2e
