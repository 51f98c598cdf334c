#include "fleet_driver.hpp"

#include <algorithm>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <utility>

#include "apr/outcome_json.hpp"
#include "parallel/superstep.hpp"
#include "serve/checkpoint.hpp"
#include "serve/scheduler.hpp"

namespace e2e {

namespace apr = mwr::apr;
namespace serve = mwr::serve;

namespace {
constexpr const char* kOutcomeSchema = "mwr-campaign-outcome-v1";

serve::OracleHub::Stats operator+(serve::OracleHub::Stats a,
                                  const serve::OracleHub::Stats& b) {
  a.oracle_builds += b.oracle_builds;
  a.oracle_hits += b.oracle_hits;
  a.pool_builds += b.pool_builds;
  a.pool_hits += b.pool_hits;
  return a;
}

serve::OracleHub::Stats operator-(serve::OracleHub::Stats a,
                                  const serve::OracleHub::Stats& b) {
  a.oracle_builds -= b.oracle_builds;
  a.oracle_hits -= b.oracle_hits;
  a.pool_builds -= b.pool_builds;
  a.pool_hits -= b.pool_hits;
  return a;
}

using WriterStats = serve::CheckpointWriter::Stats;

WriterStats operator+(WriterStats a, const WriterStats& b) {
  a.writes += b.writes;
  a.removes += b.removes;
  a.coalesced += b.coalesced;
  a.failures += b.failures;
  a.bytes += b.bytes;
  a.writer_seconds += b.writer_seconds;
  return a;
}

WriterStats operator-(WriterStats a, const WriterStats& b) {
  a.writes -= b.writes;
  a.removes -= b.removes;
  a.coalesced -= b.coalesced;
  a.failures -= b.failures;
  a.bytes -= b.bytes;
  a.writer_seconds -= b.writer_seconds;
  return a;
}
}  // namespace

std::string render_outcome(const apr::CampaignOutcome& outcome) {
  // dump(2) + newline: the document CampaignServer::result serves.
  return apr::outcome_to_json(outcome).dump(2) + "\n";
}

// --- the real server ------------------------------------------------------

ServerFleet::ServerFleet(serve::ServerConfig config)
    : config_(std::move(config)),
      server_(std::make_unique<serve::CampaignServer>(config_)) {}

std::optional<std::uint64_t> ServerFleet::submit(
    const serve::SubmitRequest& request) {
  return server_->submit(request);
}

void ServerFleet::run_epoch() { (void)server_->run_epoch(); }

bool ServerFleet::fetch(std::uint64_t id, std::uint64_t& hash,
                        std::string& document) {
  const serve::StatusReply status = server_->status(id);
  if (!status.done) return false;
  hash = status.trajectory_hash;
  document = server_->result(id).outcome_json;
  return true;
}

std::size_t ServerFleet::restart_and_restore() {
  server_.reset();
  server_ = std::make_unique<serve::CampaignServer>(config_);
  return server_->restore_from_dir();
}

// --- the bench-side driver ------------------------------------------------

double DriverLayers::total_seconds() const noexcept {
  return submit.seconds() + scheduler.seconds() + stage_setup.seconds() +
         stage_online.seconds() + wave.seconds() + complete.seconds() +
         retire.seconds() + checkpoint.seconds() + restore.seconds();
}

/// One server lifetime: everything CampaignServer owns.  Members are
/// destroyed in the server's order (writer drains first, then the engine).
struct FleetDriver::Life {
  struct Campaign {
    std::uint64_t id = 0;
    serve::SubmitRequest request;
    std::unique_ptr<apr::CampaignSession> session;
    std::uint64_t online_cycles = 0;
    std::uint64_t checkpointed_units = ~0ull;
  };
  struct Finished {
    serve::SubmitRequest request;
    std::uint64_t hash = 0;
    std::unique_ptr<apr::CampaignOutcome> outcome;
    std::string document;  ///< rendered on first fetch, then kept.
  };

  explicit Life(std::size_t quantum) : scheduler(quantum) {}

  serve::OracleHub hub;
  serve::DeficitScheduler scheduler;
  std::map<std::uint64_t, Campaign> running;
  std::map<std::uint64_t, Finished> finished;
  std::uint64_t next_id = 1;
  std::unique_ptr<mwr::parallel::SuperstepEngine> engine;
  std::unique_ptr<serve::CheckpointWriter> writer;
};

FleetDriver::FleetDriver(serve::ServerConfig config)
    : config_(std::move(config)),
      life_(std::make_unique<Life>(config_.quantum)) {}

FleetDriver::~FleetDriver() = default;

void FleetDriver::begin_measurement(Tracer* tracer) {
  tracer_ = tracer;
  layers_ = DriverLayers{};
  base_hub_ = total_hub_stats();
  base_writer_ = total_writer_stats();
}

std::string FleetDriver::checkpoint_path(std::uint64_t id) const {
  return config_.checkpoint_dir + "/campaign-" + std::to_string(id) + ".ckpt";
}

std::optional<std::uint64_t> FleetDriver::submit(
    const serve::SubmitRequest& request) {
  Life& life = *life_;
  if (life.running.size() >= config_.max_resident) return std::nullopt;
  const std::int64_t t = now_ns();
  serve::CampaignPlan plan = serve::plan_campaign(request);
  Life::Campaign campaign;
  campaign.id = life.next_id++;
  campaign.request = request;
  campaign.session = std::make_unique<apr::CampaignSession>(
      std::move(plan.spec), plan.config, &life.hub);
  campaign.session->set_metric_scope("campaign/" +
                                     std::to_string(campaign.id));
  const std::uint64_t id = campaign.id;
  life.running.emplace(id, std::move(campaign));
  life.scheduler.admit(id);
  layers_.submit.add(now_ns() - t);
  return id;
}

void FleetDriver::run_epoch() {
  Life& life = *life_;
  const SpanScope epoch(tracer_, "epoch", Tracer::kNone, epochs_);
  // Timestamps are chained: each layer's time runs from the previous
  // timestamp, so the loop code between calls is charged to the layer
  // whose work it prepares instead of going unaccounted.
  std::int64_t t = now_ns();
  const auto charge_to = [&t](Layer& layer, std::uint64_t units) {
    const std::int64_t now = now_ns();
    layer.add(now - t, units);
    t = now;
  };

  // The scheduler's grants and the per-grant epoch state built from them.
  const std::vector<serve::DeficitScheduler::Grant> grants =
      life.scheduler.begin_epoch();
  if (grants.empty()) {
    charge_to(layers_.scheduler, 0);
    return;
  }
  ++epochs_;
  const std::size_t n = grants.size();
  std::vector<apr::CampaignSession*> sessions(n);
  std::vector<std::size_t> remaining(n);
  std::vector<std::size_t> used(n, 0);
  std::vector<char> active(n, 1);
  std::vector<char> staged(n, 0);
  std::vector<std::size_t> staged_probes(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    sessions[i] = life.running.at(grants[i].id).session.get();
    remaining[i] = grants[i].budget;
  }
  struct WaveEntry {
    std::uint32_t campaign;
    std::uint32_t probe;
  };
  std::vector<WaveEntry> wave;
  charge_to(layers_.scheduler, 0);

  // The stage / wave / complete rounds of CampaignServer::run_epoch.
  for (;;) {
    wave.clear();
    {
      const SpanScope span(tracer_, "stage", epoch.index());
      for (std::size_t i = 0; i < n; ++i) {
        if (!active[i]) continue;
        while (remaining[i] > 0) {
          std::size_t nprobes = 0;
          const std::size_t charge = sessions[i]->stage_unit(nprobes);
          if (charge == 0) {
            charge_to(layers_.stage_setup, 0);
            active[i] = 0;
            break;
          }
          used[i] += charge;
          remaining[i] -= charge;
          if (sessions[i]->unit_staged()) {
            staged[i] = 1;
            staged_probes[i] = nprobes;
            for (std::size_t j = 0; j < nprobes; ++j) {
              wave.push_back({static_cast<std::uint32_t>(i),
                              static_cast<std::uint32_t>(j)});
            }
            charge_to(layers_.stage_online, charge);
            break;
          }
          charge_to(layers_.stage_setup, charge);
          if (sessions[i]->done()) {
            active[i] = 0;
            break;
          }
        }
        if (active[i] && !staged[i] && remaining[i] == 0) active[i] = 0;
      }
    }
    if (wave.empty()) break;

    std::int64_t wave_ns = 0;
    {
      const SpanScope span(tracer_, "wave", epoch.index());
      if (!life.engine) {
        life.engine = std::make_unique<mwr::parallel::SuperstepEngine>(
            1, mwr::parallel::SuperstepEngine::Config{config_.workers});
      }
      const std::int64_t wave_start = t;
      life.engine->parallel_for(wave.size(), [&](std::size_t k) {
        sessions[wave[k].campaign]->evaluate_staged(wave[k].probe);
      });
      charge_to(layers_.wave, 1);
      wave_ns = t - wave_start;
      layers_.probes += wave.size();
    }

    const SpanScope span(tracer_, "complete", epoch.index());
    const double wave_seconds = static_cast<double>(wave_ns) * 1e-9;
    for (std::size_t i = 0; i < n; ++i) {
      if (!staged[i]) continue;
      staged[i] = 0;
      sessions[i]->complete_unit(wave_seconds *
                                 static_cast<double>(staged_probes[i]) /
                                 static_cast<double>(wave.size()));
      if (sessions[i]->done() || remaining[i] == 0) active[i] = 0;
      charge_to(layers_.complete, 1);
    }
  }

  {
    const SpanScope span(tracer_, "settle_retire", epoch.index());
    std::vector<std::uint64_t> retired;
    for (std::size_t i = 0; i < n; ++i) {
      life.scheduler.settle(grants[i].id, used[i]);
      Life::Campaign& campaign = life.running.at(grants[i].id);
      campaign.online_cycles += used[i];
      if (campaign.session->done()) retired.push_back(grants[i].id);
    }
    charge_to(layers_.scheduler, 0);
    for (const std::uint64_t id : retired) {
      retire(id);
      charge_to(layers_.retire, 1);
    }
  }

  if (!config_.checkpoint_dir.empty() && config_.checkpoint_every != 0 &&
      epochs_ % config_.checkpoint_every == 0 && !life.running.empty()) {
    const SpanScope span(tracer_, "checkpoint", epoch.index());
    if (!life.writer) {
      std::filesystem::create_directories(config_.checkpoint_dir);
      life.writer = std::make_unique<serve::CheckpointWriter>();
    }
    for (auto& [id, campaign] : life.running) {
      if (campaign.checkpointed_units == campaign.online_cycles) continue;
      serve::CampaignCheckpoint checkpoint;
      checkpoint.campaign_id = id;
      checkpoint.request = campaign.request;
      checkpoint.snapshot = campaign.session->snapshot();
      std::vector<std::uint8_t> bytes = serve::encode_checkpoint(checkpoint);
      layers_.checkpoint_bytes += bytes.size();
      life.writer->enqueue_write(id, checkpoint_path(id), std::move(bytes));
      campaign.checkpointed_units = campaign.online_cycles;
      charge_to(layers_.checkpoint, 1);
    }
  }
}

void FleetDriver::retire(std::uint64_t id) {
  Life& life = *life_;
  auto node = life.running.extract(id);
  Life::Campaign& campaign = node.mapped();
  Life::Finished finished;
  finished.request = campaign.request;
  finished.hash = campaign.session->trajectory_hash();
  finished.outcome =
      std::make_unique<apr::CampaignOutcome>(campaign.session->outcome());
  campaign.session.reset();
  life.scheduler.remove(id);
  if (!config_.checkpoint_dir.empty() && life.writer) {
    life.writer->enqueue_remove(id, checkpoint_path(id));
  }
  life.finished.emplace(id, std::move(finished));
}

bool FleetDriver::fetch(std::uint64_t id, std::uint64_t& hash,
                        std::string& document) {
  // Status polls count as retirement work too: the tenant's half of it.
  const std::int64_t t = now_ns();
  const auto it = life_->finished.find(id);
  if (it == life_->finished.end()) {
    layers_.retire.add(now_ns() - t, 0);
    return false;
  }
  Life::Finished& finished = it->second;
  if (finished.document.empty()) {
    finished.document = render_outcome(*finished.outcome);
  }
  hash = finished.hash;
  document = finished.document;
  layers_.retire.add(now_ns() - t, 0);
  return true;
}

std::size_t FleetDriver::restart_and_restore() {
  const SpanScope span(tracer_, "restore");
  const std::int64_t t = now_ns();
  // The totals include this life's writer, drained by total_writer_stats
  // exactly as the server's destructor would drain it.
  const serve::OracleHub::Stats hub = total_hub_stats();
  const serve::CheckpointWriter::Stats writer = total_writer_stats();
  life_.reset();
  past_hub_ = hub;
  past_writer_ = writer;
  life_ = std::make_unique<Life>(config_.quantum);
  Life& life = *life_;

  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.checkpoint_dir)) {
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const std::filesystem::path& path : files) {
    serve::CampaignCheckpoint checkpoint =
        serve::read_checkpoint_file(path.string());
    serve::CampaignPlan plan = serve::plan_campaign(checkpoint.request);
    Life::Campaign campaign;
    campaign.id = checkpoint.campaign_id;
    campaign.request = checkpoint.request;
    campaign.session = apr::CampaignSession::resume(
        checkpoint.snapshot, std::move(plan.spec), plan.config, &life.hub);
    campaign.session->set_metric_scope("campaign/" +
                                       std::to_string(campaign.id));
    campaign.checkpointed_units = campaign.online_cycles;
    life.next_id = std::max(life.next_id, campaign.id + 1);
    const std::uint64_t id = campaign.id;
    const bool done = campaign.session->done();
    life.running.emplace(id, std::move(campaign));
    life.scheduler.admit(id);
    if (done) retire(id);
  }
  layers_.restore.add(now_ns() - t);
  return files.size();
}

serve::OracleHub::Stats FleetDriver::total_hub_stats() const {
  return past_hub_ + life_->hub.stats();
}

serve::CheckpointWriter::Stats FleetDriver::total_writer_stats() const {
  if (!life_->writer) return past_writer_;
  life_->writer->flush();  // count the queued writes as done.
  return past_writer_ + life_->writer->stats();
}

serve::OracleHub::Stats FleetDriver::hub_stats() const {
  return total_hub_stats() - base_hub_;
}

serve::CheckpointWriter::Stats FleetDriver::writer_stats() const {
  return total_writer_stats() - base_writer_;
}

// --- the closed loop ------------------------------------------------------

LoopResult run_closed_loop(InProcessFleet& fleet, const RequestFn& make,
                           const LoopPlan& plan,
                           const std::function<void(std::size_t)>& on_epoch) {
  struct Outstanding {
    std::size_t index;
    std::uint64_t id;
    std::int64_t submit_ns;
  };
  LoopResult r;
  std::vector<Outstanding> window;
  window.reserve(kFleetResident);
  std::size_t submitted = 0;
  bool restarted = false;
  std::set<std::size_t> keep_restored;
  std::uint64_t hash = 0;
  std::string document;
  r.start_ns = now_ns();
  for (;;) {
    while (window.size() < kFleetResident && submitted < plan.submissions) {
      const std::int64_t t = now_ns();
      const std::optional<std::uint64_t> id = fleet.submit(make(submitted));
      if (!id) {
        ++r.rejected;
        r.done.push_back({submitted++, t, now_ns(), 0, false});
        break;
      }
      window.push_back({submitted++, *id, t});
    }
    if (window.empty()) break;
    fleet.run_epoch();

    std::size_t kept = 0;
    for (const Outstanding& o : window) {
      if (!fleet.fetch(o.id, hash, document)) {
        window[kept++] = o;
        continue;
      }
      const bool ok = document.find(kOutcomeSchema) != std::string::npos;
      r.done.push_back({o.index, o.submit_ns, now_ns(), hash, ok});
      if ((plan.keep && plan.keep(o.index)) ||
          keep_restored.count(o.index) != 0) {
        r.kept_documents[o.index] = document;
      }
    }
    window.resize(kept);
    if (on_epoch) on_epoch(r.done.size());

    if (!restarted && submitted >= plan.restore_after) {
      restarted = true;
      for (const Outstanding& o : window) {
        if (keep_restored.size() < plan.keep_restored)
          keep_restored.insert(o.index);
      }
      r.restore_begin_ns = now_ns();
      const std::size_t restored = fleet.restart_and_restore();
      r.restore_end_ns = now_ns();
      // Campaign ids survive the restart; a campaign that did not come
      // back would never finish.
      if (restored != window.size())
        throw std::runtime_error("restore brought back " +
                                 std::to_string(restored) + " of " +
                                 std::to_string(window.size()) +
                                 " resident campaigns");
    }
  }
  r.end_ns = now_ns();
  return r;
}

}  // namespace e2e
