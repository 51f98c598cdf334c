// SPMD scaling — the superstep engine vs thread-per-rank, quantified.
//
// Runs the Distributed MWU driver (one logical rank per population member,
// fixed work: plurality_threshold > 1 so no run converges early) across
// populations 2^6..2^13 on the bounded-worker superstep engine, and up to
// 2^10 on the historical one-OS-thread-per-rank substrate (beyond that,
// thread-per-rank is the thing being replaced: thousands of kernel threads
// on a handful of cores).  For every population the bench reports
// rank-cycles per second and the process peak RSS; for the crossover
// population 2^10 it reports the engine/thread-per-rank throughput ratio.
//
// Correctness rides along with the timing:
//  - bit_identical: at population 2^8 the full result trajectory
//    (iterations, best option, popularity vector, oracle evaluations,
//    congestion mean/max, total messages) is compared across
//    thread-per-rank and the engine at 1 and 2 workers — any divergence
//    fails the run before timing is trusted;
//  - payload counters: the small-buffer message statistics
//    (mailbox.payload_inline_msgs / payload_spilled_msgs) across one
//    engine run, i.e. how many per-message heap allocations the inline
//    representation removed vs how many still spill.  Every payload
//    wider than the inline buffer counts as spilled, the collective
//    fan-out copies included: each destination gets its own heap copy.
//
// Results are emitted as a table and as JSON (--json, default
// BENCH_spmd_scale.json) in the gated benches' "mwr-bench-v3" layout:
// one "scale.<population>.<field>" metric per point, plus the derived
// largest_population and engine_ranks_per_sec_at_crossover; CI's
// bench-smoke job gates on the file via .github/check_bench.py.
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/parallel_driver.hpp"
#include "datasets/distributions.hpp"
#include "obs/registry.hpp"
#include "obs/serialization.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

// Fixed-work driver configuration: every run executes exactly `cycles`
// update cycles (the plurality test can never pass at threshold 1.1).
core::MwuConfig bench_config(std::size_t cycles) {
  core::MwuConfig config;
  config.num_options = 8;
  config.max_iterations = cycles;
  config.plurality_threshold = 1.1;
  return config;
}

struct ScalePoint {
  std::size_t population = 0;
  double engine_ranks_per_sec = 0.0;
  double tpr_ranks_per_sec = 0.0;  ///< 0 when thread-per-rank was skipped.
  double peak_rss_kb = 0.0;        ///< process high-water mark after the run.
};

/// VmHWM from /proc/self/status, in kB (0 if unavailable).  A high-water
/// mark: monotone over the run, so later points subsume earlier ones.
double peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb;
    }
  }
  return 0.0;
}

double time_run(const core::CostOracle& oracle, const core::MwuConfig& config,
                std::size_t population, std::uint64_t seed,
                parallel::RunPolicy policy, std::size_t cycles) {
  const util::WallTimer timer;
  const auto run =
      core::run_distributed_spmd(oracle, config, seed, population, policy);
  const double elapsed = timer.elapsed_seconds();
  if (run.result.iterations != cycles) {
    std::cerr << "FATAL: expected exactly " << cycles << " cycles, got "
              << run.result.iterations << "\n";
    std::exit(1);
  }
  return static_cast<double>(population * cycles) / elapsed;
}

bool same_trajectory(const core::ParallelMwuResult& a,
                     const core::ParallelMwuResult& b) {
  return a.result.iterations == b.result.iterations &&
         a.result.best_option == b.result.best_option &&
         a.result.probabilities == b.result.probabilities &&
         a.result.evaluations == b.result.evaluations &&
         a.max_congestion_per_cycle.mean() ==
             b.max_congestion_per_cycle.mean() &&
         a.max_congestion_per_cycle.max() ==
             b.max_congestion_per_cycle.max() &&
         a.total_messages == b.total_messages;
}

int run(int argc, char** argv) {
  util::Cli cli(
      "bench_spmd_scale — Distributed-SPMD throughput and memory, superstep "
      "engine vs one OS thread per rank, with bit-identity verification");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("min-exp", 6, "smallest population exponent (2^e ranks)");
  cli.add_int("max-exp", 13, "largest population exponent for the engine");
  cli.add_int("tpr-max-exp", 10,
              "largest population exponent for thread-per-rank");
  cli.add_int("cycles", 3, "update cycles per run (fixed work)");
  cli.add_int("workers", 0, "engine worker threads (0 = hardware)");
  cli.add_string("json", "BENCH_spmd_scale.json",
                 "machine-readable output path (gated by check_bench.py)");
  if (!cli.parse(argc, argv)) return 0;

  const auto min_exp = static_cast<std::size_t>(cli.get_int("min-exp"));
  const auto max_exp = static_cast<std::size_t>(cli.get_int("max-exp"));
  const auto tpr_max_exp = static_cast<std::size_t>(cli.get_int("tpr-max-exp"));
  const auto cycles = static_cast<std::size_t>(cli.get_int("cycles"));
  const auto workers = static_cast<std::size_t>(cli.get_int("workers"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  const core::OptionSet options("flat", std::vector<double>(8, 0.5));
  const core::BernoulliOracle oracle(options);
  const core::MwuConfig config = bench_config(cycles);

  // --- bit identity: same trajectory on every substrate -------------------
  bool bit_identical = true;
  {
    constexpr std::size_t kPopulation = 256;
    const auto reference = core::run_distributed_spmd(
        oracle, config, seed, kPopulation, parallel::RunPolicy::thread_per_rank());
    for (const std::size_t w : {std::size_t{1}, std::size_t{2}}) {
      const auto engine = core::run_distributed_spmd(
          oracle, config, seed, kPopulation, parallel::RunPolicy::superstep(w));
      if (!same_trajectory(reference, engine)) {
        std::cerr << "FATAL: engine trajectory (workers=" << w
                  << ") diverged from thread-per-rank\n";
        bit_identical = false;
      }
    }
  }
  if (!bit_identical) return 1;

  // --- payload representation: allocations removed by the inline buffer --
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  std::uint64_t payload_inline = 0;
  std::uint64_t payload_spilled = 0;
  {
    const std::uint64_t inline_before =
        registry.counter("mailbox.payload_inline_msgs").value();
    const std::uint64_t spilled_before =
        registry.counter("mailbox.payload_spilled_msgs").value();
    (void)core::run_distributed_spmd(oracle, config, seed, 256,
                                     parallel::RunPolicy::superstep(workers));
    payload_inline =
        registry.counter("mailbox.payload_inline_msgs").value() - inline_before;
    payload_spilled = registry.counter("mailbox.payload_spilled_msgs").value() -
                      spilled_before;
  }

  // --- throughput scaling -------------------------------------------------
  std::vector<ScalePoint> points;
  for (std::size_t e = min_exp; e <= max_exp; ++e) {
    ScalePoint point;
    point.population = std::size_t{1} << e;
    point.engine_ranks_per_sec =
        time_run(oracle, config, point.population, seed,
                 parallel::RunPolicy::superstep(workers), cycles);
    if (e <= tpr_max_exp) {
      point.tpr_ranks_per_sec =
          time_run(oracle, config, point.population, seed,
                   parallel::RunPolicy::thread_per_rank(), cycles);
    }
    point.peak_rss_kb = peak_rss_kb();
    points.push_back(point);
  }

  const std::size_t crossover = std::size_t{1} << tpr_max_exp;
  const ScalePoint* at_crossover = nullptr;
  for (const auto& point : points) {
    if (point.population == crossover) at_crossover = &point;
  }
  const double speedup_at_crossover =
      at_crossover && at_crossover->tpr_ranks_per_sec > 0.0
          ? at_crossover->engine_ranks_per_sec / at_crossover->tpr_ranks_per_sec
          : 0.0;

  // --- report -------------------------------------------------------------
  util::Table table("Distributed SPMD scaling (" + std::to_string(cycles) +
                    " cycles per run, engine workers=" +
                    std::to_string(workers) + ")");
  table.set_header({"population", "engine ranks/s", "threads ranks/s",
                    "speedup", "peak RSS MB"});
  for (const auto& point : points) {
    table.add_row(
        {std::to_string(point.population),
         util::fmt_fixed(point.engine_ranks_per_sec, 0),
         point.tpr_ranks_per_sec > 0.0
             ? util::fmt_fixed(point.tpr_ranks_per_sec, 0)
             : std::string("—"),
         point.tpr_ranks_per_sec > 0.0
             ? util::fmt_fixed(
                   point.engine_ranks_per_sec / point.tpr_ranks_per_sec, 2) +
                   "x"
             : std::string("—"),
         util::fmt_fixed(point.peak_rss_kb / 1024.0, 1)});
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "bit-identical across substrates: yes\n"
            << "inline payload messages (alloc avoided): " << payload_inline
            << ", spilled (alloc kept): " << payload_spilled << "\n";

  // --- JSON artifact ------------------------------------------------------
  using Object = obs::JsonValue::Object;
  Object metrics{{"bit_identical", bit_identical},
                 {"speedup_at_crossover", speedup_at_crossover},
                 {"payload.inline_msgs", payload_inline},
                 {"payload.spilled_msgs", payload_spilled}};
  for (const auto& point : points) {
    const std::string prefix = "scale." + std::to_string(point.population);
    metrics.emplace_back(prefix + ".engine_ranks_per_sec",
                         point.engine_ranks_per_sec);
    metrics.emplace_back(prefix + ".tpr_ranks_per_sec",
                         point.tpr_ranks_per_sec);
    metrics.emplace_back(prefix + ".peak_rss_kb", point.peak_rss_kb);
  }
  // Populations ascend, so the last point is the largest one run.
  metrics.emplace_back("largest_population",
                       points.empty() ? 0 : points.back().population);
  if (at_crossover) {
    metrics.emplace_back("engine_ranks_per_sec_at_crossover",
                         at_crossover->engine_ranks_per_sec);
  }
  bench::write_bench_json("bench_spmd_scale",
                          Object{{"cycles", cycles},
                                 {"workers", workers},
                                 {"min_population", std::size_t{1} << min_exp},
                                 {"max_population", std::size_t{1} << max_exp},
                                 {"crossover_population", crossover}},
                          std::move(metrics), cli.get_string("json"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_spmd_scale", run, argc, argv);
}
