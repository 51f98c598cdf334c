#include "serve/server.hpp"

#include <algorithm>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "apr/outcome_json.hpp"
#include "obs/registry.hpp"
#include "obs/serialization.hpp"
#include "parallel/superstep.hpp"
#include "serve/checkpoint.hpp"
#include "serve/checkpoint_writer.hpp"
#include "util/timer.hpp"

namespace mwr::serve {

CampaignServer::CampaignServer(ServerConfig config)
    : config_(std::move(config)),
      scheduler_(config_.quantum) {
  auto& metrics = obs::MetricsRegistry::global();
  submitted_ = &metrics.counter("serve.submitted");
  rejected_ = &metrics.counter("serve.admission_rejects");
  completed_ = &metrics.counter("serve.completed");
  epochs_counter_ = &metrics.counter("serve.epochs");
  starved_counter_ = &metrics.counter("serve.starved_epochs");
  failed_counter_ = &metrics.counter("serve.failed_campaigns");
  checkpoint_bytes_ = &metrics.counter("serve.checkpoint_bytes");
  restore_rejected_ = &metrics.counter("serve.restore.rejected");
  resident_gauge_ = &metrics.gauge("serve.resident");
  probe_seconds_ = &metrics.histogram("serve.probe_seconds");
}

CampaignServer::~CampaignServer() = default;

parallel::SuperstepEngine& CampaignServer::engine() {
  if (!engine_) {
    // One rank is a placeholder — epochs drive the engine exclusively
    // through parallel_for, one body per granted campaign.  The worker
    // pool persists for the server's lifetime: no per-epoch spawn/join.
    engine_ = std::make_unique<parallel::SuperstepEngine>(
        1, parallel::SuperstepEngine::Config{config_.workers});
  }
  return *engine_;
}

CheckpointWriter& CampaignServer::writer() {
  if (!writer_) {
    std::filesystem::create_directories(config_.checkpoint_dir);
    writer_ = std::make_unique<CheckpointWriter>();
  }
  return *writer_;
}

double CampaignServer::checkpoint_writer_seconds() const {
  return writer_ ? writer_->stats().writer_seconds : 0.0;
}

void CampaignServer::record_probe_latency(double seconds) {
  if (latency_window_.size() < kLatencyWindowCapacity) {
    latency_window_.push_back(seconds);
  } else {
    latency_window_[latency_next_] = seconds;
    latency_next_ = (latency_next_ + 1) % kLatencyWindowCapacity;
  }
  probe_seconds_->observe(seconds);
}

std::vector<double> CampaignServer::probe_latency_seconds() const {
  return latency_window_;
}

std::optional<std::uint64_t> CampaignServer::submit(
    const SubmitRequest& request) {
  if (running_.size() >= config_.max_resident) {
    rejected_->add(1);
    return std::nullopt;
  }
  // Plan first: a malformed request must throw, not burn an id.
  CampaignPlan plan = plan_campaign(request);
  const std::uint64_t id = next_id_++;
  Campaign campaign;
  campaign.id = id;
  campaign.request = request;
  campaign.session = std::make_unique<apr::CampaignSession>(
      std::move(plan.spec), plan.config, &hub_);
  campaign.session->set_metric_scope("campaign/" + std::to_string(id));
  sync_progress(campaign);
  running_.emplace(id, std::move(campaign));
  scheduler_.admit(id);
  submitted_->add(1);
  resident_gauge_->set(static_cast<double>(running_.size()));
  return id;
}

bool CampaignServer::run_epoch(const std::function<void()>& during_sweep) {
  const std::vector<DeficitScheduler::Grant> grants =
      scheduler_.begin_epoch();
  if (grants.empty()) return false;

  // Campaign-level fan-out: one engine sweep per epoch, each body running
  // its grant's step(budget) and writing only its own slots.  A session
  // touches only its own state, the mutex-guarded hub and atomic metrics,
  // and evaluations are pure, so trajectories do not depend on the worker
  // count or the interleaving.  A throwing session fails only itself.
  // The campaigns are resolved before the sweep: `during_sweep` may
  // submit (insert into running_) while the workers step.
  const std::size_t n = grants.size();
  std::vector<Campaign*> campaigns(n);
  for (std::size_t i = 0; i < n; ++i)
    campaigns[i] = &running_.at(grants[i].id);
  std::vector<std::size_t> used(n, 0);
  std::vector<std::size_t> probes(n, 0);
  std::vector<double> probe_seconds(n, 0.0);
  std::vector<std::string> errors(n);
  std::exception_ptr hook_error;
  engine().parallel_for(
      n,
      [&](std::size_t i) {
        apr::CampaignSession& session = *campaigns[i]->session;
        try {
          used[i] = session.step(grants[i].budget);
          probes[i] = session.probes_last_step();
          probe_seconds[i] = session.probe_seconds_last_step();
        } catch (const std::exception& error) {
          errors[i] = error.what();
          if (errors[i].empty()) errors[i] = "campaign step failed";
        } catch (...) {
          errors[i] = "campaign step failed";
        }
      },
      [&](const parallel::SuperstepEngine::Release& release) {
        // Every campaign is steppable at once; the hook then overlaps the
        // sweep.  The epoch settles whatever the hook does; its error
        // surfaces once the server is consistent again.
        release(n);
        if (!during_sweep) return;
        try {
          during_sweep();
        } catch (...) {
          hook_error = std::current_exception();
        }
      });

  // Settle and retire, in grant order.  Per-probe latency is one
  // campaign's evaluation seconds over its probes, sampled once per
  // campaign-epoch that issued probes.
  std::vector<std::uint64_t> retired;
  std::vector<std::uint64_t> failed;
  for (std::size_t i = 0; i < n; ++i) {
    const DeficitScheduler::Grant& grant = grants[i];
    scheduler_.settle(grant.id, used[i]);
    Campaign& campaign = *campaigns[i];
    campaign.online_cycles += used[i];
    campaign.online_probes += probes[i];
    sync_progress(campaign);
    if (probes[i] > 0)
      record_probe_latency(probe_seconds[i] / static_cast<double>(probes[i]));
    if (!errors[i].empty()) {
      campaign.error = errors[i];
      failed.push_back(grant.id);
    } else if (campaign.session->done()) {
      retired.push_back(grant.id);
    } else if (used[i] == 0) {
      // DRR guarantees budget >= 1 and sessions consume >= 1 unit while
      // unfinished, so this counter staying at zero is the no-starvation
      // proof obligation CI checks.
      ++starved_epochs_count_;
      starved_counter_->add(1);
    }
  }

  for (const std::uint64_t id : failed) {
    Campaign campaign = std::move(running_.at(id));
    running_.erase(id);
    fail_campaign(std::move(campaign));
  }
  for (const std::uint64_t id : retired) {
    Campaign campaign = std::move(running_.at(id));
    running_.erase(id);
    finish_campaign(std::move(campaign));
  }

  ++epochs_run_;
  epochs_counter_->add(1);
  resident_gauge_->set(static_cast<double>(running_.size()));
  if (!config_.checkpoint_dir.empty() && config_.checkpoint_every != 0 &&
      epochs_run_ % config_.checkpoint_every == 0 && !running_.empty()) {
    // Periodic checkpoints are fully async: serialize dirty campaigns,
    // queue the writes, keep scheduling.  No flush — durability at the
    // periodic cadence is best-effort by design; the explicit
    // checkpoint_all is the barrier.
    checkpoint_bytes_->add(enqueue_dirty_checkpoints(/*periodic=*/true));
  }
  if (hook_error) std::rethrow_exception(hook_error);
  return true;
}

void CampaignServer::drain() {
  while (run_epoch()) {
  }
}

void CampaignServer::sync_progress(Campaign& campaign) {
  campaign.bugs_done = campaign.session->bugs_completed();
  campaign.repaired = campaign.session->bugs_repaired();
  campaign.trajectory_hash = campaign.session->trajectory_hash();
}

void CampaignServer::finish_campaign(Campaign&& campaign) {
  // Keep the outcome; result() renders the document on first fetch.
  campaign.outcome =
      std::make_unique<apr::CampaignOutcome>(campaign.session->outcome());
  campaign.session.reset();  // drop pool/lease memory; keep the ledger.
  scheduler_.remove(campaign.id);
  if (!config_.checkpoint_dir.empty()) {
    // Route the removal through the writer so it orders after (and
    // cancels) any in-flight write for this campaign.
    writer().enqueue_remove(campaign.id, checkpoint_path(campaign.id));
  }
  completed_->add(1);
  const std::uint64_t id = campaign.id;
  finished_.emplace(id, std::move(campaign));
}

void CampaignServer::fail_campaign(Campaign&& campaign) {
  obs::JsonValue root = obs::JsonValue::object();
  root.set("schema", "mwr-campaign-error-v1");
  root.set("error", campaign.error);
  campaign.result_json = root.dump(/*indent=*/2);
  campaign.result_json += "\n";
  campaign.session.reset();
  scheduler_.remove(campaign.id);
  if (!config_.checkpoint_dir.empty()) {
    writer().enqueue_remove(campaign.id, checkpoint_path(campaign.id));
  }
  ++failed_count_;
  failed_counter_->add(1);
  const std::uint64_t id = campaign.id;
  finished_.emplace(id, std::move(campaign));
}

std::size_t CampaignServer::resident() const noexcept {
  return running_.size();
}

std::size_t CampaignServer::completed() const noexcept {
  return finished_.size();
}

void CampaignServer::fill_status(const Campaign& campaign,
                                 StatusReply& reply) const {
  reply.known = true;
  reply.done = campaign.session == nullptr;
  reply.bug_index = campaign.bugs_done;
  reply.bugs_total = campaign.request.bugs;
  reply.online_cycles = campaign.online_cycles;
  reply.online_probes = campaign.online_probes;
  reply.repaired = campaign.repaired;
  reply.trajectory_hash = campaign.trajectory_hash;
}

StatusReply CampaignServer::status(std::uint64_t campaign_id) const {
  StatusReply reply;
  if (const auto it = running_.find(campaign_id); it != running_.end()) {
    fill_status(it->second, reply);
  } else if (const auto fin = finished_.find(campaign_id);
             fin != finished_.end()) {
    fill_status(fin->second, reply);
  }
  return reply;
}

ResultReply CampaignServer::result(std::uint64_t campaign_id) const {
  ResultReply reply;
  reply.campaign_id = campaign_id;
  if (const auto it = finished_.find(campaign_id); it != finished_.end()) {
    const Campaign& campaign = it->second;
    if (campaign.result_json.empty() && campaign.outcome != nullptr) {
      // dump(2) + newline: byte-identical to what repair_tool
      // --outcome-out writes for the same campaign (the one-schema
      // satellite), just rendered on demand instead of at retirement.
      campaign.result_json =
          apr::outcome_to_json(*campaign.outcome).dump(/*indent=*/2);
      campaign.result_json += "\n";
    }
    reply.ready = true;
    reply.outcome_json = campaign.result_json;
  }
  return reply;
}

std::string CampaignServer::checkpoint_path(std::uint64_t campaign_id) const {
  return config_.checkpoint_dir + "/campaign-" + std::to_string(campaign_id) +
         ".ckpt";
}

std::uint64_t CampaignServer::enqueue_dirty_checkpoints(bool periodic) {
  // The critical path pays only for campaigns that progressed since
  // their last checkpoint: serialize the snapshot into a buffer and
  // queue it.  The writer adds durability (tmp + fsync + rename), not
  // format: the file holds exactly encode_checkpoint's bytes.
  const util::WallTimer timer;
  std::uint64_t bytes = 0;
  CheckpointWriter& w = writer();
  for (auto& [id, campaign] : running_) {
    if (campaign.checkpointed_units == campaign.online_cycles) continue;
    // A periodic pass leaves a campaign whose previous write is still
    // queued dirty: encoding it now would only replace (coalesce) that
    // buffer, churning the heap for bytes that never reach disk.  The
    // next pass after the writer takes the old op encodes it.
    if (periodic && w.has_pending(id)) continue;
    CampaignCheckpoint checkpoint;
    checkpoint.campaign_id = id;
    checkpoint.request = campaign.request;
    checkpoint.snapshot = campaign.session->snapshot();
    std::vector<std::uint8_t> encoded = encode_checkpoint(checkpoint);
    bytes += encoded.size();
    w.enqueue_write(id, checkpoint_path(id), std::move(encoded));
    campaign.checkpointed_units = campaign.online_cycles;
  }
  checkpoint_critical_seconds_ += timer.elapsed_seconds();
  return bytes;
}

CheckpointReply CampaignServer::checkpoint_all() {
  if (config_.checkpoint_dir.empty())
    throw std::logic_error("CampaignServer: no checkpoint_dir configured");
  CheckpointReply reply;
  reply.bytes = enqueue_dirty_checkpoints(/*periodic=*/false);
  // Every resident campaign is covered after the flush: dirty ones by
  // the writes just queued, clean ones by the file already on disk.
  reply.campaigns = running_.size();
  writer().flush();  // the explicit checkpoint's durability barrier.
  checkpoint_bytes_->add(reply.bytes);
  return reply;
}

std::size_t CampaignServer::restore_from_dir() {
  if (config_.checkpoint_dir.empty())
    throw std::logic_error("CampaignServer: no checkpoint_dir configured");
  std::vector<std::filesystem::path> files;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(config_.checkpoint_dir, ec)) {
    // ".ckpt" only: a stray ".ckpt.tmp" from a crash mid-flush is not a
    // checkpoint (extension() of "x.ckpt.tmp" is ".tmp").
    if (entry.path().extension() == ".ckpt") files.push_back(entry.path());
  }
  if (ec) return 0;  // missing directory: nothing to restore.
  std::sort(files.begin(), files.end());

  std::size_t restored = 0;
  for (const std::filesystem::path& path : files) {
    // One unreadable file must not cost the others their restore: a
    // file that fails to decode, plan or resume is logged, counted and
    // left on disk for inspection.
    Campaign campaign;
    try {
      CampaignCheckpoint checkpoint = read_checkpoint_file(path.string());
      if (running_.contains(checkpoint.campaign_id) ||
          finished_.contains(checkpoint.campaign_id))
        throw std::runtime_error("duplicate campaign id " +
                                 std::to_string(checkpoint.campaign_id));
      CampaignPlan plan = plan_campaign(checkpoint.request);
      campaign.id = checkpoint.campaign_id;
      campaign.request = checkpoint.request;
      campaign.session = apr::CampaignSession::resume(
          checkpoint.snapshot, std::move(plan.spec), plan.config, &hub_);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "WARN serve: restore: skipped %s: %s\n",
                   path.string().c_str(), e.what());
      restore_rejected_->add(1);
      continue;
    }
    campaign.session->set_metric_scope("campaign/" +
                                       std::to_string(campaign.id));
    sync_progress(campaign);
    // The file just read IS the current state: clean until it progresses.
    campaign.checkpointed_units = campaign.online_cycles;
    next_id_ = std::max(next_id_, campaign.id + 1);
    if (campaign.session->done()) {
      finish_campaign(std::move(campaign));
    } else {
      const std::uint64_t id = campaign.id;
      running_.emplace(id, std::move(campaign));
      scheduler_.admit(id);
    }
    ++restored;
  }
  resident_gauge_->set(static_cast<double>(running_.size()));
  return restored;
}

}  // namespace mwr::serve
