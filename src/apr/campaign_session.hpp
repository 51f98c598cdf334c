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
// Sharing seam: by default a session builds private programs, oracles,
// and pools, and primes each bug's private oracle with the probe-wave
// table, deriving every bug's from one interference graph per campaign.
// A ScenarioServices implementation (serve/oracle_hub.hpp) lets
// co-resident campaigns on the same scenario share them; suite-run
// accounting is analytic (precompute = pool attempts, maintenance = pool
// size per revalidation — both exact identities of the implementations),
// so a shared oracle's global counter never pollutes a tenant's ledger.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/repair_session.hpp"
#include "datasets/scenario.hpp"

namespace mwr::obs {
class ScopedMetrics;
}  // namespace mwr::obs

namespace mwr::apr {

/// Provider of the heavyweight per-scenario resources a campaign needs.
/// Implementations may dedup across campaigns (the server's oracle hub);
/// the default used when none is supplied builds private instances,
/// reproducing single-tenant run_campaign exactly.
class ScenarioServices {
 public:
  /// A program + oracle pair; `program` owns the model `oracle` points
  /// into, so holders keep both alive together.  When `shared` is true
  /// the oracle is visible to other tenants: the lease owner has already
  /// primed its cache, and the tenant must not re-prime it (prime_cache
  /// racing evaluate() is undefined).
  struct OracleLease {
    std::shared_ptr<const ProgramModel> program;
    std::shared_ptr<const TestOracle> oracle;
    bool shared = false;
  };
  /// A base (phase-1) pool plus the suite runs its construction cost.
  /// `graph`, when set, is the pool's interference graph: the provider
  /// primes every oracle it warms from this pool with it.
  struct PoolLease {
    std::shared_ptr<const MutationPool> pool;
    std::uint64_t precompute_runs = 0;
    std::shared_ptr<const InterferenceGraph> graph;
  };

  virtual ~ScenarioServices() = default;

  /// Program + oracle for `spec` (the full spec, bug_id and grown test
  /// count included).
  virtual OracleLease oracle_for(const datasets::ScenarioSpec& spec) = 0;

  /// The precomputed base pool for (spec, config).  Called once per
  /// campaign with the campaign's base spec.
  virtual PoolLease base_pool(const datasets::ScenarioSpec& spec,
                              const PoolConfig& config) = 0;
};

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
  /// `services` may be null (private resources) and must otherwise
  /// outlive the session.
  CampaignSession(datasets::ScenarioSpec base, CampaignConfig config,
                  ScenarioServices* services = nullptr);
  ~CampaignSession();

  CampaignSession(const CampaignSession&) = delete;
  CampaignSession& operator=(const CampaignSession&) = delete;

  /// Advances the campaign by at most `budget` units of work and returns
  /// the units consumed (>= 1 while not done; 0 once done).  One unit is
  /// one online MWU update cycle or one setup phase (precompute / bug
  /// start); the return value is the deficit-round-robin charge.
  /// The serial driver of the staged calls below: each unit is
  /// stage_unit(), then evaluate_staged() over every staged probe — fanned
  /// out over `workers` when given, inline otherwise — then
  /// complete_unit().  `workers` also splits a bug start's interference
  /// graph build.
  std::size_t step(std::size_t budget,
                   parallel::ThreadPool* workers = nullptr);

  // --- staged execution (the serve probe wave, DESIGN.md §14) ---
  //
  // The calls step() is made of.  The server stages one unit per
  // campaign, batches every staged probe into one deterministic parallel
  // sweep, then completes the units; step() runs the same calls for one
  // campaign, so the two cannot diverge.

  /// Stages the next work unit.  Setup units (precompute, bug start,
  /// finalize) execute inline and complete immediately; an online unit
  /// begins one MWU cycle and leaves its probes staged (`staged_probes`)
  /// for evaluate_staged() + complete_unit().  Returns the DRR charge:
  /// 1 per unit, 0 once the campaign is done.  `workers` (may be null)
  /// splits a bug start's interference-graph build.
  std::size_t stage_unit(std::size_t& staged_probes,
                         parallel::ThreadPool* workers = nullptr);
  /// True while an online cycle is staged and awaiting complete_unit().
  [[nodiscard]] bool unit_staged() const noexcept { return unit_staged_; }
  /// Evaluates staged probe `j` — safe to run concurrently for distinct j
  /// and interleaved with other campaigns' staged probes.
  void evaluate_staged(std::size_t j);
  /// Completes the staged online unit: rewards, MWU update, and — when the
  /// cycle ends the bug — ledger close / campaign finalization.
  /// `elapsed_seconds` is the caller-measured wall time of the unit's
  /// probe evaluation; the cycle's wall time (its staging time plus that)
  /// goes to the bug's and the online phase's telemetry, never to a
  /// trajectory-relevant value.
  void complete_unit(double elapsed_seconds = 0.0);

  [[nodiscard]] bool done() const noexcept { return phase_ == Phase::kDone; }
  /// Valid once done().
  [[nodiscard]] const CampaignOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Suite-run probes issued by the most recent step() call.
  [[nodiscard]] std::size_t probes_last_step() const noexcept {
    return probes_last_step_;
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
      CampaignConfig config, ScenarioServices* services = nullptr);

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

  void do_precompute();
  void start_bug(parallel::ThreadPool* workers);
  void finish_bug();
  void finalize();
  void open_bug_oracle();  // (re)acquire program/oracle for bug_index_.
  // The bug's RepairSession over working_pool_; `workers` (may be null)
  // share the campaign's one interference-graph build.
  void open_repair(parallel::ThreadPool* workers);
  [[nodiscard]] datasets::ScenarioSpec bug_spec() const;
  [[nodiscard]] MwRepairConfig bug_repair_config() const;

  datasets::ScenarioSpec base_;
  CampaignConfig config_;
  ScenarioServices* services_;  // null => private resources.
  std::uint64_t fingerprint_;

  Phase phase_ = Phase::kPrecompute;
  bool unit_staged_ = false;
  std::size_t bug_index_ = 0;
  std::size_t repaired_so_far_ = 0;
  std::size_t current_tests_;  // suite size the working pool is valid for.
  std::uint64_t trajectory_fold_;
  std::size_t probes_last_step_ = 0;

  MutationPool working_pool_;
  // Private path only: the interference graph of the first working pool
  // this session opened a bug on.  Later working pools are revalidated
  // subsets of it, so every bug's probe wave derives from this one graph
  // instead of re-hashing C(n, 2) pairs per bug.
  std::unique_ptr<const InterferenceGraph> graph_;
  ScenarioServices::OracleLease bug_lease_;
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
  std::unique_ptr<obs::ScopedMetrics> scope_;
  // Per-cycle scoped counters, resolved once at set_metric_scope: the
  // string-keyed registry lookup is far too slow for the online loop.
  obs::Counter* scoped_cycles_ = nullptr;
  obs::Counter* scoped_probes_ = nullptr;
};

}  // namespace mwr::apr
