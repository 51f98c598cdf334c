// CampaignServer: multiplexes many concurrent repair campaigns over one
// persistent bounded worker pool.
//
// Execution model — the epoch pipeline (DESIGN.md §14):
//
//   submit()     admission control: a campaign is admitted while the
//                resident count is below the configured cap, planned via
//                plan_campaign(), given "campaign/<id>/" scoped metrics,
//                and registered with the deficit-round-robin scheduler.
//   run_epoch()  one scheduling epoch: a single parallel_for over the
//                granted campaigns on the resident SuperstepEngine
//                (persistent workers; no per-epoch thread spawn/join).
//                Each body runs its campaign's step(budget) and writes
//                only that campaign's slots (units used, probes, probe
//                seconds, error).  Sessions share only the internally
//                synchronized OracleHub and metrics, and evaluations are
//                pure, so trajectories do not depend on the worker count
//                or the interleaving.  Settling, retirement and the
//                periodic checkpoint then run serially in grant order.
//                Campaigns that finish are retired: result JSON rendered
//                (the same mwr-campaign-outcome-v1 document repair_tool
//                emits), scheduler slot released, checkpoint removal
//                routed through the async writer.
//   checkpoint_all() / restore_from_dir()
//                durability: the epoch path serializes only *dirty*
//                campaigns (progress since their last checkpoint) into
//                in-memory buffers and hands them to the CheckpointWriter
//                thread, which does tmp + fsync + rename off the critical
//                path.  An explicit checkpoint_all flushes the writer
//                before replying; periodic epoch checkpoints do not, and
//                skip campaigns whose previous write is still queued.  A
//                fresh daemon reloads the directory and resumes every
//                campaign bit-identically (the trajectory-hash pin).
//
// The server is driven from one thread, the daemon's control loop
// (serve/control_loop.hpp).  The engine's campaign sweep runs beside it:
// its bodies touch disjoint sessions plus the internally-synchronized hub
// and metrics registry.  While the sweep runs, the loop may call the
// server from run_epoch's `during_sweep` hook, which overlaps the sweep,
// but only through submit(), status(), result(), resident() and
// completed().  They read and write the campaign maps, the scheduler's
// admission table and the progress each campaign caches when it is
// admitted, restored or settled, never a session the workers are
// stepping: a STATUS mid-sweep reports the campaign as of the previous
// epoch, byte for byte what it would report between the epochs.  A
// campaign submitted mid-sweep is first stepped in the next epoch.
// checkpoint_all() serializes sessions, so it waits for the join (the
// loop parks a CHECKPOINT request until then).  The writer thread only
// ever sees byte buffers the critical path has already sealed.
//
// Fairness telemetry: serve.starved_epochs counts campaigns that ended
// an epoch with zero units consumed while unfinished.  The DRR invariant
// (every resident campaign gets budget >= 1 every epoch, and sessions
// always consume >= 1 unit when budgeted) keeps it at exactly zero; CI
// asserts that on every serve-lane run.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apr/campaign_session.hpp"
#include "apr/oracle_hub.hpp"
#include "serve/control.hpp"
#include "serve/scheduler.hpp"

namespace mwr::obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace mwr::obs

namespace mwr::parallel {
class SuperstepEngine;
}  // namespace mwr::parallel

namespace mwr::serve {

class CheckpointWriter;

struct ServerConfig {
  std::size_t max_resident = 256;   ///< admission-control cap.
  std::size_t quantum = 8;          ///< DRR work units per campaign-epoch.
  std::size_t workers = 0;          ///< campaigns stepped at once (engine
                                    ///< workers); 0 = hardware.
  std::string checkpoint_dir;       ///< empty = durability disabled.
  std::size_t checkpoint_every = 0; ///< epochs between auto-checkpoints;
                                    ///< 0 = only explicit checkpoint_all().
};

class CampaignServer {
 public:
  /// Probe-latency samples retained for percentile telemetry: a rolling
  /// window, so a long-lived daemon's memory does not grow with epochs.
  static constexpr std::size_t kLatencyWindowCapacity = 1024;

  explicit CampaignServer(ServerConfig config);
  ~CampaignServer();

  CampaignServer(const CampaignServer&) = delete;
  CampaignServer& operator=(const CampaignServer&) = delete;

  /// Admission control: returns the campaign id, or nullopt when the
  /// resident cap is reached.  Throws std::invalid_argument for a
  /// malformed request (unknown scenario / MWU kind, degenerate repair
  /// knobs — see plan_campaign).
  std::optional<std::uint64_t> submit(const SubmitRequest& request);

  /// Runs one DRR epoch over the resident campaigns.  Returns false when
  /// there was nothing to run (the hook is not called then).
  /// `during_sweep`, when set, runs once on the calling thread while the
  /// engine steps the epoch's campaigns, under the rules in the header
  /// comment above.  If it throws, the epoch still settles and the
  /// exception is rethrown after.
  bool run_epoch(const std::function<void()>& during_sweep = {});

  /// Steps epochs until every resident campaign has finished.
  void drain();

  [[nodiscard]] std::size_t resident() const noexcept;
  [[nodiscard]] std::size_t completed() const noexcept;
  [[nodiscard]] std::uint64_t epochs() const noexcept { return epochs_run_; }
  /// Campaign-epochs that made zero progress (the starvation monitor;
  /// invariantly 0 under DRR).
  [[nodiscard]] std::uint64_t starved_epochs() const noexcept {
    return starved_epochs_count_;
  }
  /// Campaigns retired because their session threw mid-epoch (each one
  /// fails alone; the daemon and every other tenant keep running).
  [[nodiscard]] std::uint64_t failed_campaigns() const noexcept {
    return failed_count_;
  }

  [[nodiscard]] StatusReply status(std::uint64_t campaign_id) const;
  /// Result JSON for a finished campaign (ready=false while running or
  /// for unknown ids).
  [[nodiscard]] ResultReply result(std::uint64_t campaign_id) const;

  /// A campaign's probe-evaluation wall seconds in an epoch divided by
  /// its probes, one sample per campaign-epoch that issued probes — the
  /// per-probe evaluation time on one worker thread, behind the bench's
  /// p50/p99 probe latency.  Returns the rolling window's
  /// contents (at most kLatencyWindowCapacity samples; order is not
  /// meaningful — consumers compute percentiles).
  [[nodiscard]] std::vector<double> probe_latency_seconds() const;

  /// Wall seconds the epoch/checkpoint critical path spent serializing
  /// snapshots and queueing them (everything checkpointing costs the
  /// control loop; file I/O is checkpoint_writer_seconds()).
  [[nodiscard]] double checkpoint_critical_seconds() const noexcept {
    return checkpoint_critical_seconds_;
  }
  /// Wall seconds the async writer thread spent in file operations
  /// (tmp write + fsync + rename), off the critical path.
  [[nodiscard]] double checkpoint_writer_seconds() const;

  /// Serializes every dirty resident campaign, queues the writes, and
  /// flushes the writer (the durability barrier an explicit checkpoint
  /// promises).  reply.campaigns counts every resident campaign whose
  /// durable state is current after the call — clean campaigns are
  /// covered by their existing file and cost no bytes; reply.bytes is
  /// what this call actually serialized.  Throws std::logic_error when
  /// no checkpoint_dir is configured, std::runtime_error when a write
  /// failed.
  CheckpointReply checkpoint_all();
  /// Loads every "*.ckpt" in checkpoint_dir and resumes the campaigns;
  /// returns how many were restored.  Stray "*.ckpt.tmp" files (a crash
  /// mid-flush) are ignored.  A file that fails to decode or resume (or
  /// repeats a campaign id already restored) is skipped: its path and
  /// the reason are logged, serve.restore.rejected counts it, and the
  /// file stays on disk.
  std::size_t restore_from_dir();

  [[nodiscard]] const ServerConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const apr::OracleHub& hub() const noexcept { return hub_; }

 private:
  struct Campaign {
    std::uint64_t id = 0;
    SubmitRequest request;
    std::unique_ptr<apr::CampaignSession> session;
    /// Final outcome, kept so the result document can be rendered on
    /// first fetch instead of at retirement (most campaigns in a bulk
    /// load are never fetched; rendering them all on the epoch path was
    /// measurable).  Null for failed campaigns, which render their
    /// error document eagerly.
    std::unique_ptr<apr::CampaignOutcome> outcome;
    /// Result document; lazily rendered from `outcome` (only the
    /// control loop's thread calls result(), so the mutable cache is
    /// unsynchronized by design).
    mutable std::string result_json;
    std::string error;              ///< non-empty = campaign failed.
    std::uint64_t online_cycles = 0;
    std::uint64_t online_probes = 0;
    /// The session's progress as of the last settle (or admission /
    /// restore): what status() reports, so it never reads a session
    /// the engine may be stepping.
    std::uint64_t bugs_done = 0;
    std::uint64_t repaired = 0;
    std::uint64_t trajectory_hash = 0;
    /// online_cycles value at the last checkpoint of this campaign; the
    /// dirty predicate is checkpointed_units != online_cycles (units
    /// strictly increase every granted epoch while unfinished).  ~0 =
    /// never checkpointed.
    std::uint64_t checkpointed_units = ~0ull;
  };

  /// Copies the session's bug counts and trajectory hash into the
  /// campaign's status cache.  Never called while the session steps.
  static void sync_progress(Campaign& campaign);
  void finish_campaign(Campaign&& campaign);
  /// Retires a campaign whose session threw (campaign.error holds the
  /// message): the result frame becomes an mwr-campaign-error-v1
  /// document and the scheduler slot is released, leaving every other
  /// tenant untouched.
  void fail_campaign(Campaign&& campaign);
  void fill_status(const Campaign& campaign, StatusReply& reply) const;
  [[nodiscard]] std::string checkpoint_path(std::uint64_t campaign_id) const;
  /// The resident engine (created on first use; persistent worker pool).
  parallel::SuperstepEngine& engine();
  /// The async writer (created on first use; also makes checkpoint_dir).
  CheckpointWriter& writer();
  /// Serializes dirty campaigns and queues their writes (no flush).
  /// `periodic` skips campaigns whose previous write is still queued;
  /// they stay dirty for the next pass.  Returns the bytes serialized;
  /// accumulates the critical-path timer.
  std::uint64_t enqueue_dirty_checkpoints(bool periodic);
  void record_probe_latency(double seconds);

  ServerConfig config_;
  apr::OracleHub hub_;
  DeficitScheduler scheduler_;
  std::map<std::uint64_t, Campaign> running_;
  std::map<std::uint64_t, Campaign> finished_;
  std::uint64_t next_id_ = 1;
  std::uint64_t epochs_run_ = 0;
  std::uint64_t starved_epochs_count_ = 0;
  std::uint64_t failed_count_ = 0;
  std::unique_ptr<parallel::SuperstepEngine> engine_;
  std::unique_ptr<CheckpointWriter> writer_;
  double checkpoint_critical_seconds_ = 0.0;
  // Rolling latency window (ring buffer; latency_next_ wraps).
  std::vector<double> latency_window_;
  std::size_t latency_next_ = 0;

  obs::Counter* submitted_;
  obs::Counter* rejected_;
  obs::Counter* completed_;
  obs::Counter* epochs_counter_;
  obs::Counter* starved_counter_;
  obs::Counter* failed_counter_;
  obs::Counter* checkpoint_bytes_;
  obs::Counter* restore_rejected_;
  obs::Gauge* resident_gauge_;
  obs::Histogram* probe_seconds_;
};

}  // namespace mwr::serve
