// Shared pieces of the bench_e2e load generator: options, clocks, seeded
// input derivation, digests, memory probes, and the report every workload
// fills in.
//
// The metric tables below are the benchmark's contract with
// BENCHMARK.json: an untraced run emits exactly kEndToEnd, a traced run
// exactly kPerLayer (a layer a workload bypasses reads 0).  The smoke test
// checks the two lists against BENCHMARK.json.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <string_view>
#include <sys/types.h>
#include <vector>

namespace e2e {

struct MetricSpec {
  const char* name;
  const char* unit;
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"throughput_per_s", "1/s"}, {"latency_p50_ms", "ms"},
    {"latency_p95_ms", "ms"},    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"serve.submit.us_per_campaign", "us"},
    {"serve.scheduler.share", "ratio"},
    {"serve.retire.us_per_campaign", "us"},
    {"serve.checkpoint.serialize_us_per_campaign", "us"},
    {"serve.checkpoint.bytes_per_campaign", "bytes"},
    {"serve.checkpoint.share", "ratio"},
    {"serve.checkpoint.writer_busy_frac", "ratio"},
    {"serve.checkpoint.coalesced_frac", "ratio"},
    {"serve.restore.ms", "ms"},
    {"serve.restore.post_pre_throughput", "ratio"},
    {"serve.hub.oracle_hit_ratio", "ratio"},
    {"serve.hub.pool_hit_ratio", "ratio"},
    {"serve.codec.encode_us_per_frame", "us"},
    {"serve.codec.decode_us_per_frame", "us"},
    {"serve.control.result_frame_bytes", "bytes"},
    {"serve.control.bytes_per_campaign", "bytes"},
    {"serve.control.sweep_ms_p50", "ms"},
    {"serve.control.sweep_ms_p99", "ms"},
    {"serve.control.client_busy_frac", "ratio"},
    {"apr.stage_online.units", "count"},
    {"apr.stage_online.us_per_unit", "us"},
    {"apr.stage_online.share", "ratio"},
    {"apr.stage_setup.units", "count"},
    {"apr.stage_setup.us_per_unit", "us"},
    {"apr.stage_setup.share", "ratio"},
    {"apr.complete.us_per_unit", "us"},
    {"apr.complete.share", "ratio"},
    {"apr.oracle.mask_hit_ratio", "ratio"},
    {"apr.oracle.pair_hits_per_probe", "count"},
    {"apr.precompute.ms_per_campaign", "ms"},
    {"apr.precompute.share", "ratio"},
    {"apr.bug_setup.ms_per_bug", "ms"},
    {"apr.bug_setup.share", "ratio"},
    {"apr.online_cycle.us_per_cycle", "us"},
    {"apr.online_cycle.us_per_probe", "us"},
    {"apr.online_cycle.share", "ratio"},
    {"parallel.wave.probes", "count"},
    {"parallel.wave.probes_per_round", "count"},
    {"parallel.wave.us_per_probe", "us"},
    {"parallel.wave.share", "ratio"},
    {"core.mwu.standard.ms_per_rep", "ms"},
    {"core.mwu.standard.ns_per_cycle", "ns"},
    {"core.mwu.standard.share", "ratio"},
    {"core.mwu.distributed.ms_per_rep", "ms"},
    {"core.mwu.distributed.ns_per_cycle", "ns"},
    {"core.mwu.distributed.share", "ratio"},
    {"core.mwu.slate.ms_per_rep", "ms"},
    {"core.mwu.slate.ns_per_cycle", "ns"},
    {"core.mwu.slate.share", "ratio"},
    {"core.mwu.cycles", "count"},
    {"datasets.suite.share", "ratio"},
    {"costmodel.sweep.parallel_efficiency", "ratio"},
    {"trace.layer_sum_ratio", "ratio"},
    {"trace.overhead", "ratio"},
};

/// Bounds trace.layer_sum_ratio must lie within for a traced run to pass.
inline constexpr double kLayerSumMin = 0.97;
inline constexpr double kLayerSumMax = 1.00;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string trace_out;  ///< Chrome trace-event JSON path; empty = none.
  std::string work_dir;   ///< scratch files (sockets, checkpoints).
  bool smoke = false;     ///< tiny workloads, for the smoke test.
};

// --- clocks -------------------------------------------------------------

inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_between(std::int64_t from_ns, std::int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) * 1e-9;
}

/// num / den, or 0 when den is not positive (a layer that did no work).
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// --- inputs and digests -------------------------------------------------

/// Threads each workload computes on: two, or one on a one-core machine.
/// Deliberately not every hardware thread: on a shared virtual machine the
/// cores actually available drift over minutes (a 4-thread probe swung
/// between 2.5 and 4 cores' worth on the 4-vCPU machine this benchmark was
/// built on), and a workload that needs every core inherits that drift.
std::size_t bench_threads();

/// SplitMix64 finalizer: derives independent per-item seeds from the run
/// seed, so the same --seed always yields the same inputs.
std::uint64_t mix64(std::uint64_t x) noexcept;

/// FNV-1a fold, the same construction the repository's trajectory hashes
/// use; digests compare outputs across runs and code paths.
class Digest {
 public:
  void add(std::uint64_t v) noexcept;
  void add(std::string_view s) noexcept;
  void add_double(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// --- memory -------------------------------------------------------------

/// Peak resident set of this process, in MB.
double self_peak_rss_mb();
/// Peak resident set (VmHWM) of a child process, in MB; 0 if unreadable.
double child_peak_rss_mb(pid_t pid);

// --- statistics ---------------------------------------------------------

/// Linear-interpolated percentile (q in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> xs, double q);
inline double median(std::vector<double> xs) {
  return percentile(std::move(xs), 0.5);
}

// --- the report ---------------------------------------------------------

/// What one bench_e2e invocation prints: metrics as
/// "<workload> <metric> <value> <unit>" lines, digests, named checks, and
/// the attempted/failed operation counts.
class Report {
 public:
  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value);
  void check(const std::string& name, bool ok, const std::string& detail = "");
  void digest(const std::string& name, std::uint64_t value);
  void operations(std::uint64_t attempted, std::uint64_t failed);

  /// Emits every metric of `specs`, reading 0 for any the workload did
  /// not set; a metric set but missing from `specs` fails a check.
  void print(std::ostream& out, bool traced);

  [[nodiscard]] bool ok() const noexcept;
  [[nodiscard]] const std::map<std::string, std::uint64_t>& digests() const {
    return digests_;
  }

 private:
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::string workload_;
  std::map<std::string, double> metrics_;
  std::map<std::string, std::uint64_t> digests_;
  std::vector<Check> checks_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// Reports latency_p50_ms and latency_p95_ms of a latency sample in ms.
void report_latencies(Report& report, const std::vector<double>& latency_ms);

/// Fails the check `name` unless the layer times summed to within
/// [kLayerSumMin, kLayerSumMax] of the traced wall time.
void check_layer_sum(Report& report, const std::string& name, double sum);

}  // namespace e2e
