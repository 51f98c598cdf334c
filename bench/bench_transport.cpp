// Transport microbench — message throughput and round-trip latency for the
// two Comm substrates: the in-process mailbox path and the
// Unix-domain-socket fabric of multi-process worlds.
//
// Two ranks, two measurements per backend:
//   burst      — rank 0 streams `burst` one-double messages to rank 1 and
//                waits for a single ack; msgs/sec over the whole exchange.
//   ping-pong  — `pingpong` request/reply round trips; per-trip wall
//                latencies, reported at p99.
// The multi-process world places one rank per process, so every message
// actually crosses the fabric (encode → socket → drain thread → mailbox);
// the in-process numbers are the mailbox-only reference the fabric is
// compared against.
//
// Emits a table and JSON (--json, default BENCH_transport.json) in the
// gated benches' "mwr-bench-v3" layout ("<backend>.msgs_per_sec",
// "<backend>.p99_latency_us"); CI's bench-smoke job gates the file
// against bench/BENCH_transport.baseline.json via .github/check_bench.py.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "obs/serialization.hpp"
#include "parallel/comm.hpp"
#include "parallel/transport/process_world.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

constexpr int kTagBurst = 1;
constexpr int kTagAck = 2;
constexpr int kTagPing = 3;
constexpr int kTagPong = 4;

struct BackendResult {
  std::string name;
  double msgs_per_sec = 0.0;
  double p99_latency_us = 0.0;
};

// The two-rank benchmark body; identical for every backend.  Returns
// {msgs_per_sec, p99_latency_us} from rank 0, zeros from rank 1.
std::vector<double> bench_body(parallel::Comm& comm, std::size_t burst,
                               std::size_t pingpong) {
  if (comm.rank() == 0) {
    // --- burst throughput ---
    const util::WallTimer burst_timer;
    for (std::size_t i = 0; i < burst; ++i) {
      comm.send_untracked(1, kTagBurst, {static_cast<double>(i)});
    }
    (void)comm.recv(1, kTagAck);  // recv flushes, then blocks for the ack
    const double burst_seconds = burst_timer.elapsed_seconds();

    // --- ping-pong latency ---
    std::vector<double> latencies_us;
    latencies_us.reserve(pingpong);
    for (std::size_t i = 0; i < pingpong; ++i) {
      const util::WallTimer trip;
      comm.send_untracked(1, kTagPing, {});
      (void)comm.recv(1, kTagPong);
      latencies_us.push_back(trip.elapsed_seconds() * 1e6);
    }
    return {static_cast<double>(burst) / burst_seconds,
            util::percentile(latencies_us, 0.99)};
  }
  for (std::size_t i = 0; i < burst; ++i) (void)comm.recv(0, kTagBurst);
  comm.send_untracked(0, kTagAck, {});
  for (std::size_t i = 0; i < pingpong; ++i) {
    (void)comm.recv(0, kTagPing);
    comm.send_untracked(0, kTagPong, {});
  }
  return {0.0, 0.0};
}

BackendResult bench_in_process(std::size_t burst, std::size_t pingpong) {
  BackendResult result;
  result.name = "in_process";
  parallel::CommWorld world(2, parallel::RunPolicy::thread_per_rank());
  std::vector<double> rank0;
  world.run([&](parallel::Comm& comm) {
    auto r = bench_body(comm, burst, pingpong);
    if (comm.rank() == 0) rank0 = std::move(r);
  });
  result.msgs_per_sec = rank0.at(0);
  result.p99_latency_us = rank0.at(1);
  return result;
}

BackendResult bench_uds(std::size_t burst, std::size_t pingpong) {
  BackendResult result;
  result.name = "uds";
  parallel::transport::ProcessWorldConfig config;
  config.global_ranks = 2;
  config.processes = 2;
  const auto outcome = parallel::transport::run_process_world(
      config, [burst, pingpong](parallel::CommWorld& world,
                                const parallel::WorldLayout& /*layout*/) {
        std::vector<double> rank0{0.0, 0.0};
        world.run([&](parallel::Comm& comm) {
          auto r = bench_body(comm, burst, pingpong);
          if (comm.rank() == 0) rank0 = std::move(r);
        });
        return rank0;
      });
  if (!outcome.ok) {
    std::cerr << "FATAL: " << result.name << " world failed: " << outcome.error
              << "\n";
    std::exit(1);
  }
  result.msgs_per_sec = outcome.values.at(0).at(0);
  result.p99_latency_us = outcome.values.at(0).at(1);
  return result;
}

int run(int argc, char** argv) {
  util::Cli cli(
      "bench_transport — message throughput and round-trip latency across "
      "the in-process and UDS Comm backends");
  cli.add_int("burst", 20000, "messages in the one-way throughput burst");
  cli.add_int("pingpong", 2000, "request/reply round trips for latency");
  cli.add_string("json", "BENCH_transport.json",
                 "machine-readable output path (gated by check_bench.py)");
  cli.add_string("csv", "", "also write the table as CSV");
  if (!cli.parse(argc, argv)) return 0;

  const auto burst = static_cast<std::size_t>(cli.get_int("burst"));
  const auto pingpong = static_cast<std::size_t>(cli.get_int("pingpong"));

  const std::vector<BackendResult> results = {
      bench_in_process(burst, pingpong),
      bench_uds(burst, pingpong),
  };

  util::Table table("Transport backends (" + std::to_string(burst) +
                    "-msg burst, " + std::to_string(pingpong) +
                    " round trips)");
  table.set_header({"backend", "msgs/s", "p99 RTT us"});
  for (const auto& result : results) {
    table.add_row({result.name, util::fmt_fixed(result.msgs_per_sec, 0),
                   util::fmt_fixed(result.p99_latency_us, 1)});
  }
  table.emit(std::cout, cli.get_string("csv"));

  using Object = obs::JsonValue::Object;
  Object metrics;
  for (const auto& result : results) {
    const std::string name = result.name;
    metrics.emplace_back(name + ".msgs_per_sec", result.msgs_per_sec);
    metrics.emplace_back(name + ".p99_latency_us", result.p99_latency_us);
  }
  bench::write_bench_json("bench_transport",
                          Object{{"burst", burst}, {"pingpong", pingpong}},
                          std::move(metrics), cli.get_string("json"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_transport", run, argc, argv);
}
