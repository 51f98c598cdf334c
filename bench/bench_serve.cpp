// Serve-path load generator — drives the repair-as-a-service campaign
// server with a mixed-family fleet of concurrent campaigns and measures
// the serving metrics the paper's deployment story rests on:
//
//   load       — campaigns/sec through submit -> DRR epochs -> retire,
//                plus admission-control rejects from a deliberate
//                overflow beyond the resident cap;
//   probes     — p50/p99 per-probe latency (a campaign's evaluation
//                wall seconds over its probes, sampled every
//                campaign-epoch that probed);
//   checkpoint — bytes written by a mid-flight checkpoint_all(), the
//                critical-path vs async-writer wall-time split, and
//                resume_ok: a kill/restore cycle must reproduce the
//                uninterrupted trajectory hash and outcome JSON for
//                every campaign (the bit-identity pin);
//   fairness   — epochs run, p50/p99 wall time per epoch, and starved
//                campaign-epochs (must be 0 under deficit round robin).
//
// Two modes:
//   default    — self-hosted: an in-process CampaignServer, so every
//                section above is observable.  Emits BENCH_serve.json
//                in the gated benches' "mwr-bench-v3" layout, one
//                "<section>.<field>" metric per value plus
//                unfinished_campaigns; CI's bench-smoke job gates it
//                against bench/BENCH_serve.baseline.json via
//                .github/check_bench.py.
//   --connect PATH
//                drives an external mwr_served daemon over its UDS
//                control socket instead: submits the fleet, polls every
//                campaign to completion, prints a per-campaign ledger
//                (id, scenario, cycles, probes, repaired, hash) for the
//                CI serve lane's artifact.  Daemon-internal sections
//                (probes, fairness, checkpoint) are not client-visible,
//                so connect mode does not write the gated JSON.
//                --poll-only skips submission and polls ids 1..N — the
//                post-kill --resume half of the CI durability exercise.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "obs/serialization.hpp"
#include "serve/client.hpp"
#include "serve/control.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

// One scenario per paper family flavor: tiny C, the two gzip defects,
// a web server, and two Defects4J programs.
const std::vector<std::string> kFamilies = {
    "units",   "gzip-2009-08-16", "gzip-2009-09-26",
    "Chart26", "Math8",           "lighttpd-1806-1807",
};

// Campaign sizing, overridable from the CLI: the CI durability exercise
// submits deliberately long campaigns so a kill -9 lands mid-flight.
std::uint32_t g_bugs = 2;
std::uint32_t g_iterations = 60;

/// The serving-sized campaign the fleet is built from; the per-campaign
/// seed keeps trajectories distinct within a family.
serve::SubmitRequest fleet_request(std::size_t index) {
  serve::SubmitRequest request;
  request.scenario = kFamilies[index % kFamilies.size()];
  request.bugs = g_bugs;
  request.pool_target = 150;
  request.pool_attempts = 10000;
  request.pool_seed = 11;
  request.arms = 16;
  request.agents = 4;
  request.max_count = 128;
  request.max_iterations = g_iterations;
  request.repair_seed = 100 + static_cast<std::uint64_t>(index);
  return request;
}

struct LoadResult {
  std::size_t campaigns = 0;       // accepted into the fleet
  std::size_t completed = 0;
  std::size_t rejects = 0;         // admission-control rejections
  double campaigns_per_sec = 0.0;
  std::uint64_t epochs = 0;
  std::uint64_t starved = 0;
  std::vector<double> probe_latency_us;
  std::vector<double> epoch_us;    // wall time of every scheduling epoch
};

struct CheckpointResult {
  std::uint64_t total_bytes = 0;
  double critical_path_us = 0.0;   // serialize + queue, on the epoch path
  double writer_us = 0.0;          // tmp + fsync + rename, off-path
  bool resume_ok = false;
};

constexpr std::size_t kOverflowSubmissions = 8;

/// Self-hosted load phase: N campaigns + a deliberate overflow past the
/// admission cap, drained to completion on an in-process server.
LoadResult run_load(std::size_t campaigns, std::size_t quantum,
                    std::size_t workers) {
  serve::ServerConfig config;
  config.max_resident = campaigns;
  config.quantum = quantum;
  config.workers = workers;
  serve::CampaignServer server(config);

  LoadResult result;
  const util::WallTimer timer;
  for (std::size_t i = 0; i < campaigns; ++i) {
    if (server.submit(fleet_request(i)).has_value()) ++result.campaigns;
  }
  for (std::size_t i = 0; i < kOverflowSubmissions; ++i) {
    if (!server.submit(fleet_request(campaigns + i)).has_value())
      ++result.rejects;
  }
  // Drain epoch by epoch so every scheduling epoch's wall time lands in
  // the p50/p99 distribution (the pipeline's headline latency).
  while (server.resident() > 0) {
    const util::WallTimer epoch_timer;
    if (!server.run_epoch()) break;
    result.epoch_us.push_back(epoch_timer.elapsed_seconds() * 1e6);
  }
  const double seconds = timer.elapsed_seconds();

  result.completed = server.completed();
  result.campaigns_per_sec =
      seconds > 0.0 ? static_cast<double>(result.completed) / seconds : 0.0;
  result.epochs = server.epochs();
  result.starved = server.starved_epochs();
  result.probe_latency_us.reserve(server.probe_latency_seconds().size());
  for (const double s : server.probe_latency_seconds())
    result.probe_latency_us.push_back(s * 1e6);
  return result;
}

/// The durability pin, measured in-run: checkpoint a mid-flight fleet,
/// destroy the server (kill -9 equivalent), restore into a fresh one,
/// and demand the uninterrupted trajectories back bit-for-bit.
CheckpointResult run_checkpoint_cycle(std::size_t workers) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() / "mwr-bench-serve-ckpt";
  std::filesystem::remove_all(dir);

  const std::size_t fleet = kFamilies.size();
  std::vector<std::uint64_t> reference_hashes;
  std::vector<std::string> reference_json;
  {
    serve::ServerConfig config;
    config.workers = workers;
    serve::CampaignServer reference(config);
    std::vector<std::uint64_t> ids;
    for (std::size_t i = 0; i < fleet; ++i)
      ids.push_back(*reference.submit(fleet_request(i)));
    reference.drain();
    for (const std::uint64_t id : ids) {
      reference_hashes.push_back(reference.status(id).trajectory_hash);
      reference_json.push_back(reference.result(id).outcome_json);
    }
  }

  CheckpointResult result;
  {
    serve::ServerConfig config;
    config.workers = workers;
    config.quantum = 1;  // keep every campaign mid-flight at the snapshot
    config.checkpoint_dir = dir.string();
    serve::CampaignServer first_life(config);
    for (std::size_t i = 0; i < fleet; ++i)
      (void)first_life.submit(fleet_request(i));
    for (int epoch = 0; epoch < 3; ++epoch) (void)first_life.run_epoch();
    result.total_bytes = first_life.checkpoint_all().bytes;
    // The async split: what serializing cost the control loop vs what
    // the writer thread spent on file I/O off the critical path.
    result.critical_path_us = first_life.checkpoint_critical_seconds() * 1e6;
    result.writer_us = first_life.checkpoint_writer_seconds() * 1e6;
    // Destructor without drain: the abrupt-death half of the cycle.
  }
  {
    serve::ServerConfig config;
    config.workers = workers;
    config.checkpoint_dir = dir.string();
    serve::CampaignServer second_life(config);
    result.resume_ok = second_life.restore_from_dir() == fleet;
    second_life.drain();
    for (std::size_t i = 0; i < fleet && result.resume_ok; ++i) {
      const std::uint64_t id = i + 1;  // ids are stable across lives
      result.resume_ok =
          second_life.status(id).trajectory_hash == reference_hashes[i] &&
          second_life.result(id).outcome_json == reference_json[i];
    }
    result.resume_ok = result.resume_ok && second_life.starved_epochs() == 0;
  }
  std::filesystem::remove_all(dir);
  return result;
}

/// Connect mode: the same fleet through a live mwr_served daemon.
/// Prints the per-campaign ledger the CI serve lane archives.
int run_connect(const std::string& socket_path, std::size_t campaigns,
                bool poll_only, bool checkpoint_request, bool shutdown_after) {
  serve::ServeClient client(socket_path);
  if (checkpoint_request) {
    const serve::CheckpointReply reply = client.checkpoint();
    std::printf("checkpoint: %llu bytes across %llu campaign(s)\n",
                static_cast<unsigned long long>(reply.bytes),
                static_cast<unsigned long long>(reply.campaigns));
    return reply.campaigns > 0 ? 0 : 1;
  }
  std::vector<std::uint64_t> ids;
  std::size_t rejects = 0;
  const util::WallTimer timer;

  if (poll_only) {
    for (std::size_t i = 0; i < campaigns; ++i) ids.push_back(i + 1);
  } else {
    for (std::size_t i = 0; i < campaigns; ++i) {
      const serve::SubmitReply reply = client.submit(fleet_request(i));
      if (reply.accepted) {
        ids.push_back(reply.campaign_id);
      } else {
        ++rejects;
      }
    }
  }

  std::vector<std::uint64_t> pending = ids;
  while (!pending.empty()) {
    std::vector<std::uint64_t> still;
    for (const std::uint64_t id : pending) {
      if (!client.status(id).done) still.push_back(id);
    }
    pending = std::move(still);
    if (pending.empty()) break;
    if (timer.elapsed_seconds() > 600.0) {
      std::cerr << "FATAL: " << pending.size()
                << " campaign(s) still unfinished after 600s (first id "
                << pending.front() << ")\n";
      return 1;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const double seconds = timer.elapsed_seconds();

  std::size_t repaired_campaigns = 0;
  std::cout << "campaign scenario cycles probes repaired hash\n";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const serve::StatusReply status = client.status(ids[i]);
    const std::string scenario =
        poll_only ? "?" : fleet_request(i).scenario;  // daemon-side ids align
    repaired_campaigns += status.repaired > 0 ? 1u : 0u;
    std::printf("%llu %s %llu %llu %llu %016llx\n",
                static_cast<unsigned long long>(ids[i]), scenario.c_str(),
                static_cast<unsigned long long>(status.online_cycles),
                static_cast<unsigned long long>(status.online_probes),
                static_cast<unsigned long long>(status.repaired),
                static_cast<unsigned long long>(status.trajectory_hash));
    const serve::ResultReply result = client.result(ids[i]);
    if (!result.ready ||
        result.outcome_json.find("mwr-campaign-outcome-v1") ==
            std::string::npos) {
      std::cerr << "FATAL: campaign " << ids[i]
                << " finished without a well-formed outcome document\n";
      return 1;
    }
  }
  std::printf(
      "connect: %zu campaigns done in %.2fs (%.1f campaigns/s), "
      "%zu rejects, %zu with repairs\n",
      ids.size(), seconds,
      seconds > 0.0 ? static_cast<double>(ids.size()) / seconds : 0.0, rejects,
      repaired_campaigns);
  if (shutdown_after) (void)client.shutdown();
  return 0;
}

}  // namespace

int run(int argc, char** argv);

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_serve", run, argc, argv);
}

int run(int argc, char** argv) {
  util::Cli cli(
      "bench_serve — mixed-family campaign fleet through the campaign "
      "server: throughput, probe latency, checkpoint durability, DRR "
      "fairness");
  cli.add_int("campaigns", 96, "fleet size (cycled across 6 families)");
  cli.add_int("bugs", 2, "bugs per campaign (CI durability uses more)");
  cli.add_int("iterations", 60, "online iteration cap per bug");
  cli.add_int("quantum", 8, "DRR work units per campaign-epoch");
  cli.add_int("workers", 0, "engine worker threads (0 = hardware)");
  cli.add_flag("full", "paper-scale fleet (1000 campaigns)");
  cli.add_string("connect", "",
                 "drive a live mwr_served daemon at this socket instead "
                 "of self-hosting (no gated JSON in this mode)");
  cli.add_flag("poll-only",
               "with --connect: poll ids 1..campaigns instead of "
               "submitting (post-resume CI phase)");
  cli.add_flag("checkpoint-request",
               "with --connect: ask the daemon to checkpoint every "
               "resident campaign, print the reply, exit");
  cli.add_flag("shutdown", "with --connect: drain-shutdown the daemon after");
  cli.add_string("json", "BENCH_serve.json",
                 "machine-readable output path (gated by check_bench.py)");
  cli.add_string("csv", "", "also write the table as CSV");
  if (!cli.parse(argc, argv)) return 0;

  std::size_t campaigns = static_cast<std::size_t>(cli.get_int("campaigns"));
  if (cli.get_flag("full")) campaigns = 1000;
  g_bugs = static_cast<std::uint32_t>(cli.get_int("bugs"));
  g_iterations = static_cast<std::uint32_t>(cli.get_int("iterations"));

  if (!cli.get_string("connect").empty()) {
    return run_connect(cli.get_string("connect"), campaigns,
                       cli.get_flag("poll-only"),
                       cli.get_flag("checkpoint-request"),
                       cli.get_flag("shutdown"));
  }

  const std::size_t quantum = static_cast<std::size_t>(cli.get_int("quantum"));
  const std::size_t workers = static_cast<std::size_t>(cli.get_int("workers"));
  const LoadResult load = run_load(campaigns, quantum, workers);
  const CheckpointResult checkpoint = run_checkpoint_cycle(workers);

  const double p50_us = util::percentile(load.probe_latency_us, 0.50);
  const double p99_us = util::percentile(load.probe_latency_us, 0.99);
  const double epoch_p50_us = util::percentile(load.epoch_us, 0.50);
  const double epoch_p99_us = util::percentile(load.epoch_us, 0.99);

  util::Table table("Campaign server (" + std::to_string(load.campaigns) +
                    " campaigns, " + std::to_string(kFamilies.size()) +
                    " families, quantum " + std::to_string(quantum) + ")");
  table.set_header({"metric", "value"});
  table.add_row({"campaigns/s", util::fmt_fixed(load.campaigns_per_sec, 1)});
  table.add_row({"completed", std::to_string(load.completed)});
  table.add_row({"admission rejects", std::to_string(load.rejects)});
  table.add_row({"probe p50 us", util::fmt_fixed(p50_us, 2)});
  table.add_row({"probe p99 us", util::fmt_fixed(p99_us, 2)});
  table.add_row({"epochs", std::to_string(load.epochs)});
  table.add_row({"epoch p50 us", util::fmt_fixed(epoch_p50_us, 1)});
  table.add_row({"epoch p99 us", util::fmt_fixed(epoch_p99_us, 1)});
  table.add_row({"starved epochs", std::to_string(load.starved)});
  table.add_row(
      {"checkpoint bytes", std::to_string(checkpoint.total_bytes)});
  table.add_row({"checkpoint critical-path us",
                 util::fmt_fixed(checkpoint.critical_path_us, 1)});
  table.add_row(
      {"checkpoint writer us", util::fmt_fixed(checkpoint.writer_us, 1)});
  table.add_row({"resume bit-identical", checkpoint.resume_ok ? "yes" : "NO"});
  table.emit(std::cout, cli.get_string("csv"));

  using Object = obs::JsonValue::Object;
  const std::size_t families = kFamilies.size();
  bench::write_bench_json(
      "bench_serve",
      Object{{"campaigns", load.campaigns},
             {"families", families},
             {"quantum", quantum},
             {"workers", workers}},
      Object{{"load.campaigns", load.campaigns},
             {"load.completed", load.completed},
             {"load.families", families},
             {"load.campaigns_per_sec", load.campaigns_per_sec},
             {"load.admission_rejects", load.rejects},
             {"probes.count", load.probe_latency_us.size()},
             {"probes.p50_us", p50_us},
             {"probes.p99_us", p99_us},
             {"checkpoint.total_bytes", checkpoint.total_bytes},
             {"checkpoint.critical_path_us", checkpoint.critical_path_us},
             {"checkpoint.writer_us", checkpoint.writer_us},
             {"checkpoint.resume_ok", checkpoint.resume_ok},
             {"fairness.epochs", load.epochs},
             {"fairness.epoch_p50_us", epoch_p50_us},
             {"fairness.epoch_p99_us", epoch_p99_us},
             {"fairness.starved_epochs", load.starved},
             {"unfinished_campaigns", load.campaigns - load.completed}},
      cli.get_string("json"));
  return checkpoint.resume_ok && load.starved == 0 ? 0 : 1;
}
