// fleet_wire and fleet_durable: the served fleet seen by a tenant over the
// control socket, and the operator's durability path in-process.
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>

#include "apr/campaign.hpp"
#include "fleet_client.hpp"
#include "fleet_driver.hpp"
#include "obs/registry.hpp"
#include "workloads.hpp"

extern char** environ;

namespace e2e {

namespace {

namespace apr = mwr::apr;
namespace serve = mwr::serve;

// One scenario per paper family flavour (bench_serve's fleet): tiny C, two
// gzip defects, two Defects4J programs and a web server.
const std::vector<std::string> kFamilies = {
    "units",   "gzip-2009-08-16", "gzip-2009-09-26",
    "Chart26", "Math8",           "lighttpd-1806-1807",
};

constexpr std::size_t kQuantum = 8;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kWarmupCampaigns = 6;  // one per family.

struct FleetShape {
  std::uint32_t bugs;
  std::uint32_t iterations;
  std::size_t golden_prefix;  ///< campaigns the golden digest covers.
  std::size_t rss_after;      ///< completions at which peak RSS is read.
  std::size_t check_stride;   ///< every n-th campaign is recomputed.
  std::size_t episode;        ///< fleet_durable: campaigns per server life.
};

FleetShape wire_shape(bool smoke) {
  return smoke ? FleetShape{2, 60, 64, 512, 64, 0}
                     : FleetShape{2, 60, 512, 16384, 2048, 0};
}

FleetShape durable_shape(bool smoke) {
  return smoke ? FleetShape{2, 60, 64, 512, 64, 512}
                     : FleetShape{4, 200, 256, 2048, 256, 2048};
}

serve::SubmitRequest fleet_request(std::uint64_t seed, std::size_t index,
                                   const FleetShape& shape) {
  serve::SubmitRequest request;
  request.scenario = kFamilies[index % kFamilies.size()];
  request.bugs = shape.bugs;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  // A fixed pool seed, as in bench_serve: every campaign of a family shares
  // one precomputed pool, and the pools are the same for every run seed.
  // The pools decide how hard the repairs are, so a per-seed pool would
  // move every campaign of a run together and swamp the seed-to-seed
  // comparison; the repair seeds below vary per campaign instead.
  request.pool_seed = 11;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = shape.iterations;
  request.repair_seed = mix64(mix64(seed) + index);
  return request;
}

RequestFn request_stream(std::uint64_t seed, const FleetShape& shape) {
  return [seed, shape](std::size_t i) {
    return fleet_request(seed, i, shape);
  };
}

/// The warm-up campaigns: the same fixed work in every run.
RequestFn warmup_stream(const FleetShape& shape) {
  return [shape](std::size_t i) { return fleet_request(0, i, shape); };
}

/// mwr_served as a child process; killed and reaped if still running.
class Daemon {
 public:
  Daemon(std::string socket_path, std::size_t workers)
      : socket_(std::move(socket_path)) {
    std::filesystem::remove(socket_);
    const std::string workers_arg = std::to_string(workers);
    const std::string resident_arg = std::to_string(kFleetResident);
    const std::string quantum_arg = std::to_string(kQuantum);
    // The idle exit stops an orphaned daemon should this process be killed.
    std::vector<std::string> args = {
        MWR_SERVED_PATH, "--socket",        socket_,      "--workers",
        workers_arg,     "--max-campaigns", resident_arg, "--quantum",
        quantum_arg,     "--idle-exit-seconds", "30"};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    // The daemon's banner goes to stderr: stdout carries only results.
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
    const int rc = posix_spawn(&pid_, MWR_SERVED_PATH, &actions, nullptr,
                               argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    if (rc != 0) {
      pid_ = -1;
      throw std::runtime_error("cannot start " + std::string(MWR_SERVED_PATH));
    }
  }
  ~Daemon() {
    if (pid_ > 0) {
      kill(pid_, SIGKILL);
      waitpid(pid_, nullptr, 0);
    }
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  [[nodiscard]] pid_t pid() const noexcept { return pid_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

  /// Waits up to `timeout_s` for an orderly exit; true on exit status 0.
  bool wait_exit(double timeout_s) {
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(timeout_s * 1e9);
    while (now_ns() < deadline) {
      int status = 0;
      if (waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return WIFEXITED(status) && WEXITSTATUS(status) == 0;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return false;  // the destructor kills it.
  }

 private:
  std::string socket_;
  pid_t pid_ = -1;
};

std::string scratch_path(const Options& options, const std::string& what,
                         int k) {
  return options.work_dir + "/" + what + "-" + std::to_string(getpid()) + "-" +
         std::to_string(k);
}

/// Reports throughput and latency of the campaigns that finished inside
/// [start, deadline]; the rest were drained only for the output checks.
/// The window is cut into `blocks` equal blocks and each metric is the
/// median over the blocks, which a short stall elsewhere on the machine
/// cannot move (the load is steady, so the blocks are alike).
void report_window(Report& report, const std::vector<Completion>& done,
                   std::int64_t start, std::int64_t deadline,
                   std::size_t blocks) {
  const std::int64_t block_ns =
      (deadline - start) / static_cast<std::int64_t>(blocks);
  std::vector<std::vector<double>> latency_ms(blocks);
  for (const Completion& c : done) {
    if (!c.outcome_ok || c.done_ns > deadline) continue;
    const auto b = std::min<std::size_t>(
        blocks - 1, static_cast<std::size_t>((c.done_ns - start) / block_ns));
    latency_ms[b].push_back(
        static_cast<double>(c.done_ns - c.submit_ns) * 1e-6);
  }
  std::vector<double> rate, p50, p95;
  for (const std::vector<double>& block : latency_ms) {
    rate.push_back(static_cast<double>(block.size()) /
                   (static_cast<double>(block_ns) * 1e-9));
    p50.push_back(percentile(block, 0.50));
    p95.push_back(percentile(block, 0.95));
  }
  report.metric("throughput_per_s", median(rate));
  report.metric("latency_p50_ms", median(p50));
  report.metric("latency_p95_ms", median(p95));
}

/// Trajectory hashes folded in request order.  With `prefix`, only the
/// first `prefix` requests, and 0 unless every one of them completed.
std::uint64_t fleet_digest(std::vector<Completion> done,
                           std::size_t prefix = ~std::size_t{0}) {
  std::sort(done.begin(), done.end(),
            [](const Completion& a, const Completion& b) {
              return a.index < b.index;
            });
  Digest d;
  std::size_t expected = 0;
  for (const Completion& c : done) {
    if (c.index >= prefix) break;
    if (c.index != expected++) return 0;
    d.add(static_cast<std::uint64_t>(c.index));
    d.add(c.hash);
  }
  if (prefix != ~std::size_t{0} && expected != prefix) return 0;
  return d.value();
}

std::uint64_t count_failed(const std::vector<Completion>& done) {
  return static_cast<std::uint64_t>(
      std::count_if(done.begin(), done.end(),
                    [](const Completion& c) { return !c.outcome_ok; }));
}

/// Recomputes each kept campaign with apr::run_campaign (the repair_tool
/// path: private oracles and pools, no server) and compares documents
/// byte for byte.  Returns the mismatches.
std::uint64_t cross_check(const RequestFn& make,
                          const std::map<std::size_t, std::string>& kept) {
  std::uint64_t mismatches = 0;
  for (const auto& [index, document] : kept) {
    const serve::CampaignPlan plan = serve::plan_campaign(make(index));
    if (render_outcome(apr::run_campaign(plan.spec, plan.config)) != document)
      ++mismatches;
  }
  return mismatches;
}

void report_outputs(Report& report, const std::vector<Completion>& done,
                    const FleetShape& shape, std::uint64_t mismatches,
                    std::size_t checked) {
  const std::uint64_t failed = count_failed(done);
  report.operations(done.size(), failed + mismatches);
  report.check("outcome_documents", failed == 0,
               std::to_string(failed) + " malformed or refused");
  report.check("cross_check", mismatches == 0 && checked > 0,
               std::to_string(mismatches) + " of " + std::to_string(checked) +
                   " differ from apr::run_campaign");
  report.digest("all", fleet_digest(done));
  if (const std::uint64_t golden = fleet_digest(done, shape.golden_prefix))
    report.digest("golden", golden);
}

serve::ServerConfig in_process_config(std::size_t workers,
                                      std::string checkpoint_dir) {
  serve::ServerConfig config;
  config.max_resident = kFleetResident;
  config.quantum = kQuantum;
  config.workers = workers;
  config.checkpoint_dir = std::move(checkpoint_dir);
  config.checkpoint_every = config.checkpoint_dir.empty() ? 0 : 1;
  return config;
}

/// Runs the warm-up campaigns to completion; false if any went wrong.
bool warm_up(InProcessFleet& fleet, const RequestFn& warm) {
  LoopPlan plan;
  plan.submissions = kWarmupCampaigns;
  const LoopResult r = run_closed_loop(fleet, warm, plan);
  return r.done.size() == kWarmupCampaigns && count_failed(r.done) == 0;
}

/// Registry counters behind apr.oracle.*, read around a traced phase.
struct OracleCounters {
  std::uint64_t mask_hits = 0;
  std::uint64_t mask_misses = 0;
  std::uint64_t pair_hits = 0;

  static OracleCounters read() {
    auto& m = mwr::obs::MetricsRegistry::global();
    return {m.counter("oracle.mask_cache_hits").value(),
            m.counter("oracle.mask_cache_misses").value(),
            m.counter("oracle.pair_cache_hits").value()};
  }
  OracleCounters operator-(const OracleCounters& o) const {
    return {mask_hits - o.mask_hits, mask_misses - o.mask_misses,
            pair_hits - o.pair_hits};
  }
};

/// Completion rate of the life after the restore (to the end of the loop)
/// over the rate of the life before it.
double post_pre_throughput(const LoopResult& r) {
  if (r.restore_begin_ns == 0) return 0.0;
  std::size_t pre = 0;
  for (const Completion& c : r.done) pre += c.done_ns < r.restore_begin_ns;
  const double pre_rate =
      ratio(static_cast<double>(pre),
            seconds_between(r.start_ns, r.restore_begin_ns));
  const double post_rate =
      ratio(static_cast<double>(r.done.size() - pre),
            seconds_between(r.restore_end_ns, r.end_ns));
  return ratio(post_rate, pre_rate);
}

/// Per-layer metrics of a traced in-process replay on FleetDriver.
void report_driver(Report& report, const FleetDriver& driver,
                   const LoopResult& loop, const OracleCounters& oracle) {
  const DriverLayers& l = driver.layers();
  const double wall = seconds_between(loop.start_ns, loop.end_ns);
  const serve::OracleHub::Stats hub = driver.hub_stats();
  const serve::CheckpointWriter::Stats writer = driver.writer_stats();
  const auto share = [wall](const Layer& layer) {
    return layer.seconds() / wall;
  };
  report.metric("serve.submit.us_per_campaign", l.submit.us_per_unit());
  report.metric("serve.scheduler.share", share(l.scheduler));
  report.metric("serve.retire.us_per_campaign", l.retire.us_per_unit());
  report.metric("serve.checkpoint.serialize_us_per_campaign",
                l.checkpoint.us_per_unit());
  report.metric("serve.checkpoint.bytes_per_campaign",
                ratio(static_cast<double>(l.checkpoint_bytes),
                      static_cast<double>(l.checkpoint.units)));
  report.metric("serve.checkpoint.share", share(l.checkpoint));
  report.metric("serve.checkpoint.writer_busy_frac",
                writer.writer_seconds / wall);
  report.metric(
      "serve.checkpoint.coalesced_frac",
      ratio(static_cast<double>(writer.coalesced),
            static_cast<double>(writer.writes + writer.removes +
                                writer.failures + writer.coalesced)));
  report.metric("serve.restore.ms", l.restore.seconds() * 1e3);
  report.metric("serve.restore.post_pre_throughput", post_pre_throughput(loop));
  report.metric(
      "serve.hub.oracle_hit_ratio",
      ratio(static_cast<double>(hub.oracle_hits),
            static_cast<double>(hub.oracle_hits + hub.oracle_builds)));
  report.metric("serve.hub.pool_hit_ratio",
                ratio(static_cast<double>(hub.pool_hits),
                      static_cast<double>(hub.pool_hits + hub.pool_builds)));
  report.metric("apr.stage_online.units",
                static_cast<double>(l.stage_online.units));
  report.metric("apr.stage_online.us_per_unit", l.stage_online.us_per_unit());
  report.metric("apr.stage_online.share", share(l.stage_online));
  report.metric("apr.stage_setup.units",
                static_cast<double>(l.stage_setup.units));
  report.metric("apr.stage_setup.us_per_unit", l.stage_setup.us_per_unit());
  report.metric("apr.stage_setup.share", share(l.stage_setup));
  report.metric("apr.complete.us_per_unit", l.complete.us_per_unit());
  report.metric("apr.complete.share", share(l.complete));
  report.metric(
      "apr.oracle.mask_hit_ratio",
      ratio(static_cast<double>(oracle.mask_hits),
            static_cast<double>(oracle.mask_hits + oracle.mask_misses)));
  report.metric("apr.oracle.pair_hits_per_probe",
                ratio(static_cast<double>(oracle.pair_hits),
                      static_cast<double>(l.probes)));
  report.metric("parallel.wave.probes", static_cast<double>(l.probes));
  report.metric("parallel.wave.probes_per_round",
                ratio(static_cast<double>(l.probes),
                      static_cast<double>(l.wave.units)));
  report.metric("parallel.wave.us_per_probe",
                ratio(l.wave.seconds() * 1e6, static_cast<double>(l.probes)));
  report.metric("parallel.wave.share", share(l.wave));
}

/// The in-process half of a traced fleet run: the real server runs the
/// first `submissions` requests untraced, after the warm-up campaigns when
/// `warm` is set, restarting from its checkpoints once `restore_after` had
/// been submitted; then FleetDriver replays exactly that, under the tracer.
/// Both loops are deterministic, so they restart after the same epoch.
/// Reports the replay's digests, overhead and layer metrics, and returns
/// FleetDriver's layer sum.
double replay_in_process(const serve::ServerConfig& server_config,
                         const serve::ServerConfig& driver_config,
                         const RequestFn& make, const RequestFn& warm,
                         std::size_t submissions, std::size_t restore_after,
                         Tracer& tracer, Report& report) {
  LoopPlan plan;
  plan.submissions = submissions;
  plan.restore_after = restore_after;
  const bool restore = restore_after < submissions;
  LoopResult server_loop;
  {
    ServerFleet server(server_config);
    if (warm) report.check("server_warm_up", warm_up(server, warm));
    server_loop = run_closed_loop(server, make, plan);
  }

  FleetDriver driver(driver_config);
  if (warm) report.check("driver_warm_up", warm_up(driver, warm));
  driver.begin_measurement(&tracer);
  const OracleCounters before = OracleCounters::read();
  const LoopResult driver_loop = run_closed_loop(driver, make, plan);
  const OracleCounters oracle = OracleCounters::read() - before;

  const std::uint64_t server_digest = fleet_digest(server_loop.done);
  const std::uint64_t driver_digest = fleet_digest(driver_loop.done);
  report.digest("server", server_digest);
  report.digest("driver", driver_digest);
  report.check("driver_reproduces_server",
               server_digest == driver_digest && server_digest != 0 &&
                   driver_loop.done.size() == server_loop.done.size(),
               std::to_string(driver_loop.done.size()) + " campaigns");
  if (restore) {
    report.check("restored", server_loop.restore_begin_ns != 0 &&
                                 driver_loop.restore_begin_ns != 0);
  }
  report.operations(server_loop.done.size() + driver_loop.done.size(),
                    count_failed(server_loop.done) +
                        count_failed(driver_loop.done));
  const double wall = seconds_between(driver_loop.start_ns, driver_loop.end_ns);
  report.metric("trace.overhead",
                wall / seconds_between(server_loop.start_ns,
                                       server_loop.end_ns) -
                    1.0);
  report_driver(report, driver, driver_loop, oracle);
  const double sum = driver.layers().total_seconds() / wall;
  check_layer_sum(report, "layer_sum.driver", sum);
  return sum;
}

/// The traced value furthest from 1, so a single metric shows the worse.
double worse_layer_sum(double a, double b) {
  return std::abs(a - 1.0) >= std::abs(b - 1.0) ? a : b;
}

void traced_wire(const Options& options, Report& report) {
  const FleetShape shape = wire_shape(options.smoke);
  const std::size_t workers = bench_threads();
  const std::size_t conns = std::min<std::size_t>(
      kConnections, std::max(1u, std::thread::hardware_concurrency()));
  const RequestFn make = request_stream(options.seed, shape);
  const RequestFn warm = warmup_stream(shape);
  Tracer tracer;

  // First the wire, traced on the client side only, for 20% of the budget;
  // the two in-process replays of its campaigns take about as long again.
  std::vector<Completion> wire_done;
  ClientLayers client_layers;
  {
    Daemon daemon(scratch_path(options, "served", 0) + ".sock", workers);
    FleetClient client(daemon.socket(), conns, kFleetResident / conns);
    SubmitLimits warm_limits;
    warm_limits.max_submissions = kWarmupCampaigns;
    report.check("warm_up", count_failed(client.run(warm, warm_limits)) == 0);
    client.tracer = &tracer;
    tracer.set_lane(2);
    SubmitLimits limits;
    limits.deadline_ns =
        now_ns() + static_cast<std::int64_t>(options.seconds * 0.2e9);
    wire_done = client.run(make, limits);
    client_layers = client.layers;
    client.shutdown();
    report.check("daemon_exit", daemon.wait_exit(10.0));
  }
  report.metric("serve.codec.encode_us_per_frame",
                client_layers.encode.us_per_unit());
  report.metric("serve.codec.decode_us_per_frame",
                client_layers.decode.us_per_unit());
  report.metric("serve.control.result_frame_bytes",
                ratio(static_cast<double>(client_layers.result_frame_bytes),
                      static_cast<double>(client_layers.result_frames)));
  report.metric("serve.control.bytes_per_campaign",
                ratio(static_cast<double>(client_layers.bytes_sent +
                                          client_layers.bytes_received),
                      static_cast<double>(wire_done.size())));
  report.metric("serve.control.sweep_ms_p50",
                percentile(client_layers.round_ms, 0.50));
  report.metric("serve.control.sweep_ms_p99",
                percentile(client_layers.round_ms, 0.99));
  const double rounds_s = client_layers.rounds.seconds();
  report.metric("serve.control.client_busy_frac",
                ratio(rounds_s - client_layers.recv.seconds(), rounds_s));
  const double client_sum =
      ratio(client_layers.encode.seconds() + client_layers.send.seconds() +
                client_layers.recv.seconds() + client_layers.decode.seconds() +
                client_layers.ledger.seconds(),
            rounds_s);
  check_layer_sum(report, "layer_sum.client", client_sum);
  report.digest("wire", fleet_digest(wire_done));
  report.operations(wire_done.size(), count_failed(wire_done));

  // Then the same requests in-process, on the real server and on the
  // traced driver, both with the daemon's worker count.  Their digests
  // must match the wire's.
  tracer.set_lane(1);
  const serve::ServerConfig config = in_process_config(workers, "");
  const double driver_sum =
      replay_in_process(config, config, make, warm, wire_done.size(),
                        std::numeric_limits<std::size_t>::max(), tracer,
                        report);
  report.check("wire_matches_driver",
               report.digests().at("driver") == fleet_digest(wire_done));
  report.metric("trace.layer_sum_ratio",
                worse_layer_sum(driver_sum, client_sum));
  if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
}

void untraced_wire(const Options& options, Report& report) {
  const FleetShape shape = wire_shape(options.smoke);
  const std::size_t workers = bench_threads();
  const std::size_t conns = std::min<std::size_t>(
      kConnections, std::max(1u, std::thread::hardware_concurrency()));
  const RequestFn make = request_stream(options.seed, shape);
  const RequestFn warm = warmup_stream(shape);

  // Set-up: boot the daemon, connect, and run the warm-up campaigns.
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<FleetClient> client;
  std::vector<double> setups;
  bool clean_exits = true;
  bool warm_ok = true;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (client) {
      client->shutdown();
      client.reset();
      clean_exits &= daemon->wait_exit(10.0);
    }
    const std::int64_t t = now_ns();
    daemon = std::make_unique<Daemon>(
        scratch_path(options, "served", k) + ".sock", workers);
    client = std::make_unique<FleetClient>(daemon->socket(), conns,
                                           kFleetResident / conns);
    SubmitLimits warm_limits;
    warm_limits.max_submissions = kWarmupCampaigns;
    warm_ok &= count_failed(client->run(warm, warm_limits)) == 0;
    setups.push_back(seconds_between(t, now_ns()));
  }

  const std::size_t stride = shape.check_stride;
  client->keep = [stride](std::size_t i) { return i % stride == 0; };
  double rss_mb = 0.0;
  const pid_t pid = daemon->pid();
  const std::int64_t start = now_ns();
  SubmitLimits limits;
  limits.deadline_ns = start + static_cast<std::int64_t>(options.seconds * 1e9);
  const std::vector<Completion> done =
      client->run(make, limits, [&](std::size_t completed) {
        if (rss_mb == 0.0 && completed >= shape.rss_after)
          rss_mb = child_peak_rss_mb(pid);
      });
  if (rss_mb == 0.0) rss_mb = child_peak_rss_mb(pid);
  const std::map<std::size_t, std::string> kept =
      std::move(client->kept_documents);
  const std::uint64_t rejected = client->rejected();
  client->shutdown();
  client.reset();
  clean_exits &= daemon->wait_exit(10.0);

  // One-second blocks: the load is steady for the whole window.
  const auto blocks = static_cast<std::size_t>(options.seconds);
  report_window(report, done, start, limits.deadline_ns,
                std::max<std::size_t>(1, blocks));
  report.metric("setup_s", median(setups));
  report.metric("peak_rss_mb", rss_mb);
  report.check("warm_up", warm_ok);
  report.check("admission", rejected == 0,
               std::to_string(rejected) + " refused");
  report.check("daemon_exit", clean_exits);
  report_outputs(report, done, shape, cross_check(make, kept), kept.size());
}

void traced_durable(const Options& options, Report& report) {
  const FleetShape shape = durable_shape(options.smoke);
  const std::size_t workers = bench_threads();
  const RequestFn make = request_stream(options.seed, shape);
  const RequestFn warm = warmup_stream(shape);
  const std::string server_dir = scratch_path(options, "durable", 0);
  const std::string driver_dir = scratch_path(options, "durable", 1);
  Tracer tracer;
  // One episode of the untraced workload, cold as there.
  report.metric(
      "trace.layer_sum_ratio",
      replay_in_process(in_process_config(workers, server_dir),
                        in_process_config(workers, driver_dir), make,
                        RequestFn{}, shape.episode, shape.episode / 4, tracer,
                        report));
  std::filesystem::remove_all(server_dir);
  std::filesystem::remove_all(driver_dir);
  if (!options.trace_out.empty()) tracer.write_chrome(options.trace_out);
}

void untraced_durable(const Options& options, Report& report) {
  const FleetShape shape = durable_shape(options.smoke);
  const std::size_t workers = bench_threads();
  const RequestFn make = request_stream(options.seed, shape);
  const RequestFn warm = warmup_stream(shape);

  // Set-up: a fresh server with its checkpoint directory, warmed up.
  std::vector<double> setups;
  bool warm_ok = true;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::string dir = scratch_path(options, "durable-setup", k);
    const std::int64_t t = now_ns();
    {
      ServerFleet fleet(in_process_config(workers, dir));
      warm_ok &= warm_up(fleet, warm);
      setups.push_back(seconds_between(t, now_ns()));
    }
    std::filesystem::remove_all(dir);
  }

  // Episodes of fixed work until the deadline: a fresh server (cold hub)
  // runs `episode` campaigns and is destroyed and restored from its
  // checkpoints right after the epoch in which a quarter of them had been
  // submitted, so most of an episode is the restored server's life.
  // Fixed work keeps the restore at the same point of every episode
  // however fast the program is.  Each metric is the median over episodes.
  std::vector<Completion> done;
  std::map<std::size_t, std::string> kept;
  std::vector<double> episode_rates;
  std::vector<double> episode_p50;
  std::vector<double> episode_p95;
  std::uint64_t rejected = 0;
  bool restored = true;
  double rss_mb = 0.0;
  const std::size_t stride = shape.check_stride;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(options.seconds * 1e9);
  for (std::size_t e = 0; e == 0 || now_ns() < deadline; ++e) {
    const std::size_t base = e * shape.episode;
    LoopPlan plan;
    plan.submissions = shape.episode;
    plan.restore_after = shape.episode / 4;
    plan.keep = [base, stride](std::size_t i) {
      return (base + i) % stride == 0;
    };
    plan.keep_restored = e == 0 ? 8 : 0;
    const std::string dir =
        scratch_path(options, "durable", static_cast<int>(e));
    const std::int64_t t = now_ns();
    LoopResult r;
    {
      ServerFleet fleet(in_process_config(workers, dir));
      r = run_closed_loop(
          fleet, [&](std::size_t i) { return make(base + i); }, plan,
          [&](std::size_t n) {
            if (rss_mb == 0.0 && done.size() + n >= shape.rss_after)
              rss_mb = self_peak_rss_mb();
          });
    }
    episode_rates.push_back(static_cast<double>(r.done.size()) /
                            seconds_between(t, now_ns()));
    std::vector<double> latency_ms;
    for (const Completion& c : r.done) {
      if (c.outcome_ok)
        latency_ms.push_back(
            static_cast<double>(c.done_ns - c.submit_ns) * 1e-6);
    }
    episode_p50.push_back(percentile(latency_ms, 0.50));
    episode_p95.push_back(percentile(latency_ms, 0.95));
    std::filesystem::remove_all(dir);
    restored &= r.restore_begin_ns != 0;
    rejected += r.rejected;
    for (Completion c : r.done) {
      c.index += base;
      done.push_back(c);
    }
    for (auto& [i, document] : r.kept_documents)
      kept[base + i] = std::move(document);
  }
  if (rss_mb == 0.0) rss_mb = self_peak_rss_mb();

  report.metric("throughput_per_s", median(episode_rates));
  report.metric("latency_p50_ms", median(episode_p50));
  report.metric("latency_p95_ms", median(episode_p95));
  report.metric("setup_s", median(setups));
  report.metric("peak_rss_mb", rss_mb);
  report.check("warm_up", warm_ok);
  report.check("restored", restored,
               std::to_string(episode_rates.size()) + " episodes");
  report.check("admission", rejected == 0);
  report_outputs(report, done, shape, cross_check(make, kept), kept.size());
}

}  // namespace

void run_fleet_wire(const Options& options, Report& report) {
  if (options.traced) {
    traced_wire(options, report);
  } else {
    untraced_wire(options, report);
  }
}

void run_fleet_durable(const Options& options, Report& report) {
  if (options.traced) {
    traced_durable(options, report);
  } else {
    untraced_durable(options, report);
  }
}

}  // namespace e2e
