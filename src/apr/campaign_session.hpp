// Step-wise, checkpointable execution of a multi-bug repair campaign —
// run_campaign (§III-C) unrolled into a resumable state machine.
//
// A campaign server multiplexing thousands of tenants cannot afford
// run_campaign's shape (one blocking call per campaign): it needs to
// advance each campaign a bounded number of update cycles per scheduling
// quantum, snapshot a campaign between cycles, and resume it after a
// daemon restart bit-identically.  CampaignSession is that shape.  The
// phases mirror the historical loop exactly:
//
//   kPrecompute  — phase 1, once: build the safe-mutation pool.
//   kBugStart    — per bug: grow the suite, revalidate the working pool
//                  (incremental maintenance), construct the online search.
//   kOnline      — one MWU update cycle per step (RepairSession).
//   kFinishBug   — close the bug's ledger; next bug or kDone.
//
// Every stochastic draw happens in the same order as run_campaign, so a
// session stepped to completion produces the same CampaignOutcome —
// run_campaign is now implemented as exactly that loop.
//
// Resources: every session draws its base pool, the pool's interference
// graph, and each bug's warmed oracle from an OracleHub
// (apr/oracle_hub.hpp).  A server hands all of its sessions one hub so
// co-resident campaigns on the same scenario share them; a session
// constructed without a hub draws from the process hub
// (OracleHub::process()), so repeated single-shot campaigns in one
// process share them the same way.  Suite-run accounting is
// analytic (precompute = pool attempts, maintenance = pool size per
// revalidation — both exact identities of the implementations), so a
// shared oracle's global counter never pollutes a tenant's ledger.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/oracle_hub.hpp"
#include "apr/repair_session.hpp"
#include "datasets/scenario.hpp"

namespace mwr::obs {
class ScopedMetrics;
}  // namespace mwr::obs

namespace mwr::apr {

/// Everything needed to rebuild a mid-campaign session, as plain numbers
/// and mutation triples (serve/checkpoint.hpp encodes it into wire
/// frames).  Snapshots are taken between update cycles only.
struct CampaignSnapshot {
  /// Guards against resuming with a different scenario or configuration.
  std::uint64_t fingerprint = 0;
  std::uint32_t phase = 0;  ///< CampaignSession::Phase under the hood.
  std::uint64_t bug_index = 0;
  std::uint64_t repaired_so_far = 0;
  std::uint64_t current_tests = 0;
  std::uint64_t precompute_runs = 0;
  std::uint64_t initial_pool_size = 0;
  std::uint64_t trajectory_hash = 0;
  std::vector<BugOutcome> finished_bugs;
  BugOutcome current_bug;            ///< ledger-so-far (valid in kOnline).
  std::vector<Mutation> working_pool;
  bool has_repair_state = false;
  RepairSession::State repair;       ///< valid when has_repair_state.
};

class CampaignSession {
 public:
  /// `hub` must outlive the session; when null the session draws from
  /// OracleHub::process().
  CampaignSession(datasets::ScenarioSpec base, CampaignConfig config,
                  OracleHub* hub = nullptr);
  ~CampaignSession();

  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  /// Advances the campaign by at most `budget` units of work and returns
  /// the units consumed (>= 1 while not done; 0 once done).  One unit is
  /// one online MWU update cycle or one setup phase (precompute / bug
  /// start); the return value is the deficit-round-robin charge.
  /// A setup unit is stage_unit(); an online unit is the bug's
  /// RepairSession::run_cycle — with `workers`, the calling thread stages
  /// each probe into a sweep the workers evaluate and fold; inline
  /// otherwise — then the completion complete_unit() makes.  The draws,
  /// the fold and the outcome are those of the staged calls below.
  /// `workers` also runs the setup units' suite runs and
  /// interference-graph build (see stage_unit).
  std::size_t step(std::size_t budget,
                   parallel::SuperstepEngine* workers = nullptr);

  // --- staged execution ---
  //
  // The units step() runs, as hand-driven calls: step() runs setup units
  // through stage_unit and online units through RepairSession::run_cycle,
  // which makes the same draws.  The campaign server steps each of its
  // campaigns on its own engine worker (DESIGN.md §14), so it runs units
  // only through step(); these stay public for callers that drive the
  // units by hand (the staged-call cross-checks and bench replays).

  /// Stages the next work unit.  Setup units (precompute, bug start,
  /// finalize) execute inline and complete immediately; an online unit
  /// makes one MWU cycle's draws and leaves its probes staged
  /// (`staged_probes`) for evaluate_staged() + complete_unit().  Returns
  /// the DRR charge: 1 per unit, 0 once the campaign is done.  `workers`
  /// (may be null: inline) runs the precompute's and the bug start's pool
  /// validation and splits the base pool's interference-graph build.
  std::size_t stage_unit(std::size_t& staged_probes,
                         parallel::SuperstepEngine* workers = nullptr);
  /// True while an online cycle is staged and awaiting complete_unit().
  [[nodiscard]] bool unit_staged() const noexcept { return unit_staged_; }
  /// Evaluates staged probe `j` — safe to run concurrently for distinct j
  /// and interleaved with other campaigns' staged probes.
  void evaluate_staged(std::size_t j);
  /// Completes the staged online unit: folds its draws into the trajectory
  /// hash, then rewards, MWU update, and — when the cycle ends the bug —
  /// ledger close / campaign finalization.
  /// `elapsed_seconds` is the caller-measured wall time of the unit's
  /// probe evaluation; the cycle's wall time (its staging time plus that)
  /// goes to the bug's and the online phase's telemetry, never to a
  /// trajectory-relevant value.
  void complete_unit(double elapsed_seconds = 0.0);

  // Telemetry: step() counts its units' cycles and probes, the oracle's
  // suite runs and cache hits, and the scoped campaign/<id>/online.*
  // counters in the session, and flushes them to the shared registry
  // once, when it returns; a bug's end and destruction flush too.  The
  // staged calls above flush after every completed unit.  Either way the
  // totals are exact whenever control is back with the caller.

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  /// Valid once done().
  [[nodiscard]] const CampaignOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Suite-run probes issued by the most recent step() call.
  [[nodiscard]] std::size_t probes_last_step() const noexcept {
    return probes_last_step_;
  }
  /// Wall seconds the most recent step() call spent evaluating its
  /// units' probes (RepairSession::run_cycle's return; telemetry only,
  /// never trajectory-relevant).
  [[nodiscard]] double probe_seconds_last_step() const noexcept {
    return probe_seconds_last_step_;
  }
  /// Bugs whose ledgers have closed so far (== bugs attempted when done).
  [[nodiscard]] std::size_t bugs_completed() const noexcept {
    return outcome_.bugs.size();
  }
  /// Of those, how many were repaired.
  [[nodiscard]] std::size_t bugs_repaired() const noexcept {
    return repaired_so_far_;
  }
  /// Campaign-level fingerprint: per-bug search trajectories plus the
  /// pool-maintenance ledger, folded in execution order.  Equal hashes
  /// mean bit-identical campaigns (the checkpoint/resume pin).
  [[nodiscard]] std::uint64_t trajectory_hash() const noexcept;

  /// Identity fold of (base spec, config); snapshots carry it so a resume
  /// against the wrong campaign definition fails loudly.
  [[nodiscard]] std::uint64_t fingerprint() const noexcept {
    return fingerprint_;
  }

  /// Snapshot between steps.  Valid in any phase; resuming a kDone
  /// snapshot yields a finished session.
  [[nodiscard]] CampaignSnapshot snapshot() const;
  /// Rebuilds a session from a snapshot taken for the same (base,
  /// config).  Throws std::invalid_argument on fingerprint mismatch.
  static std::unique_ptr<CampaignSession> resume(
      const CampaignSnapshot& snap, datasets::ScenarioSpec base,
      CampaignConfig config, OracleHub* hub = nullptr);

  /// Extra per-campaign metric scope (e.g. "campaign/7"): when set, the
  /// session mirrors its cycle/probe/bug counters under that prefix in
  /// the global registry, giving the server per-tenant views.
  void set_metric_scope(const std::string& prefix);

 private:
  enum class Phase : std::uint32_t {
    kPrecompute = 0,
    kBugStart = 1,
    kOnline = 2,
    kFinishBug = 3,
    kDone = 4,
  };

  /// complete_unit() without the telemetry flush (step() flushes once).
  void complete_staged(double elapsed_seconds);
  /// The online cycle's completion: finish_cycle, counters, bug close.
  void close_cycle(double cycle_seconds);
  void flush_telemetry();
  void do_precompute(parallel::SuperstepEngine* workers);
  void start_bug(parallel::SuperstepEngine* workers);
  void finish_bug();
  void finalize();
  // (Re)acquires program/oracle for bug_index_; a fresh oracle is primed
  // over `workers` (may be null).
  void open_bug_oracle(parallel::SuperstepEngine* workers = nullptr);
  void open_repair();      // the bug's RepairSession over working_pool_.
  [[nodiscard]] datasets::ScenarioSpec bug_spec() const;
  [[nodiscard]] MwRepairConfig bug_repair_config() const;

  datasets::ScenarioSpec base_;
  CampaignConfig config_;
  OracleHub* hub_;
  std::uint64_t fingerprint_;

  Phase phase_ = Phase::kPrecompute;
  bool unit_staged_ = false;
  std::size_t bug_index_ = 0;
  std::size_t repaired_so_far_ = 0;
  std::size_t current_tests_;  // suite size the working pool is valid for.
  std::uint64_t trajectory_fold_;
  std::size_t probes_last_step_ = 0;
  double probe_seconds_last_step_ = 0.0;

  MutationPool working_pool_;
  OracleHub::OracleLease bug_lease_;
  std::unique_ptr<RepairSession> repair_;
  BugOutcome current_bug_;
  double bug_seconds_ = 0.0;  // accumulated across steps for this bug.
  double staged_seconds_ = 0.0;  // staging time of the staged online unit.

  CampaignOutcome outcome_;

  // Global telemetry (same names as run_campaign) + optional tenant scope.
  obs::Counter* bugs_attempted_;
  obs::Counter* bugs_repaired_;
  obs::Counter* maintenance_runs_;
  obs::Histogram* bug_seconds_hist_;
  obs::Gauge* converged_;
  std::unique_ptr<obs::ScopedMetrics> scope_;
  // Scoped handles, resolved once at set_metric_scope: the string-keyed
  // registry lookup takes the registry mutex, which concurrently stepped
  // campaigns would contend on.
  obs::Counter* scoped_cycles_ = nullptr;
  obs::Counter* scoped_probes_ = nullptr;
  std::uint64_t pending_cycles_ = 0;  // scoped online.cycles to flush.
  std::uint64_t pending_probes_ = 0;  // scoped online.probes to flush.
  obs::Counter* scoped_bugs_attempted_ = nullptr;
  obs::Counter* scoped_bugs_repaired_ = nullptr;
  obs::Counter* scoped_maintenance_runs_ = nullptr;
  obs::Gauge* scoped_done_ = nullptr;
};

}  // namespace mwr::apr
