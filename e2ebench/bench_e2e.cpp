// bench_e2e — the end-to-end benchmark's load generator.
//
//   bench_e2e --workload NAME --seed N --seconds S [--traced [--trace-out F]]
//   bench_e2e --smoke --benchmark-json BENCHMARK.json
//
// One run measures one workload for S seconds and prints
// "<workload> <metric> <value> <unit>" lines, then digests, named checks
// and the attempted/failed operation counts (run_benchmark.py turns them
// into the benchmark's JSON result).  Exit status: 0 when every check
// passed, 1 when one failed, 2 when the run could not complete.
//
// --smoke runs every workload at a tiny size, untraced and traced, and
// checks that the metric and workload names agree with BENCHMARK.json.
#include <algorithm>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "obs/serialization.hpp"
#include "util/cli.hpp"
#include "workloads.hpp"

namespace e2e {

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet_wire", "fleet_durable", "campaign_single", "table2_sweep"};
  return names;
}

void run_workload(const Options& options, Report& report) {
  if (options.workload == "fleet_wire")
    return run_fleet_wire(options, report);
  if (options.workload == "fleet_durable")
    return run_fleet_durable(options, report);
  if (options.workload == "campaign_single")
    return run_campaign_single(options, report);
  if (options.workload == "table2_sweep")
    return run_table2_sweep(options, report);
  throw std::invalid_argument("unknown workload: " + options.workload);
}

}  // namespace e2e

namespace {

using mwr::obs::JsonValue;

std::vector<std::string> names_of(const JsonValue& doc,
                                  const std::string& key) {
  std::vector<std::string> names;
  for (const JsonValue& entry : doc.at(key).as_array())
    names.push_back(entry.at("name").as_string());
  return names;
}

template <std::size_t N>
std::vector<std::string> names_of(const e2e::MetricSpec (&specs)[N]) {
  std::vector<std::string> names;
  for (const e2e::MetricSpec& spec : specs) names.emplace_back(spec.name);
  return names;
}

bool same_names(const std::string& what, std::vector<std::string> listed,
                std::vector<std::string> emitted) {
  std::sort(listed.begin(), listed.end());
  std::sort(emitted.begin(), emitted.end());
  if (listed == emitted) return true;
  std::cerr << "smoke: BENCHMARK.json " << what
            << " names differ from the ones bench_e2e emits\n";
  return false;
}

int run_smoke(e2e::Options options, const std::string& benchmark_json) {
  std::ifstream in(benchmark_json);
  if (!in) {
    std::cerr << "smoke: cannot read " << benchmark_json << "\n";
    return 2;
  }
  std::stringstream text;
  text << in.rdbuf();
  const JsonValue doc = JsonValue::parse(text.str());
  bool ok = same_names("workloads", names_of(doc, "workloads"),
                       e2e::workload_names());
  ok &= same_names("end_to_end", names_of(doc, "end_to_end"),
                   names_of(e2e::kEndToEnd));
  ok &= same_names("per_layer", names_of(doc, "per_layer"),
                   names_of(e2e::kPerLayer));

  options.seconds = 0.4;
  options.smoke = true;
  for (const std::string& workload : e2e::workload_names()) {
    for (const bool traced : {false, true}) {
      options.workload = workload;
      options.traced = traced;
      e2e::Report report(workload);
      e2e::run_workload(options, report);
      report.print(std::cout, traced);
      ok &= report.ok();
    }
  }
  std::cout << "smoke: " << (ok ? "ok" : "FAIL") << "\n";
  return ok ? 0 : 1;
}

int run(int argc, char** argv) {
  mwr::util::Cli cli(
      "bench_e2e — end-to-end workloads of the repository benchmark "
      "(see e2ebench/README.md)");
  cli.add_string("workload", "",
                 "fleet_wire | fleet_durable | campaign_single | table2_sweep");
  cli.add_int("seed", 1, "input seed: the same seed gives the same inputs");
  cli.add_double("seconds", 10.0, "how long the run measures");
  cli.add_flag("traced", "report per-layer metrics from a traced replay");
  cli.add_string("trace-out", "",
                 "with --traced: write the spans as Chrome trace-event JSON");
  cli.add_string("work-dir", ".bench_build/tmp",
                 "directory for sockets and checkpoint files");
  cli.add_flag("smoke", "every workload at a tiny size, untraced and traced");
  cli.add_string("benchmark-json", "BENCHMARK.json",
                 "with --smoke: the benchmark definition whose names to check");
  if (!cli.parse(argc, argv)) return 0;

  e2e::Options options;
  options.workload = cli.get_string("workload");
  options.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  options.seconds = cli.get_double("seconds");
  options.traced = cli.get_flag("traced");
  options.trace_out = cli.get_string("trace-out");
  options.work_dir = cli.get_string("work-dir");
  if (options.seconds <= 0.0)
    throw std::invalid_argument("--seconds must be positive");
  std::filesystem::create_directories(options.work_dir);

  if (cli.get_flag("smoke"))
    return run_smoke(options, cli.get_string("benchmark-json"));

  e2e::Report report(options.workload);
  e2e::run_workload(options, report);
  report.print(std::cout, options.traced);
  return report.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& error) {
    std::cerr << "bench_e2e: fatal: " << error.what() << "\n";
    return 2;
  }
}
