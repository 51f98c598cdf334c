#include "apr/campaign_session.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/registry.hpp"
#include "parallel/superstep.hpp"
#include "util/fnv.hpp"

namespace mwr::apr {

namespace {
using util::fnv_fold;
using util::fnv_fold_double;

/// Identity of the campaign definition: every field of the base spec and
/// of the configuration that influences the trajectory.  A checkpoint
/// resumed against a different definition would silently diverge; the
/// fingerprint turns that into a loud error.
std::uint64_t campaign_fingerprint(const datasets::ScenarioSpec& spec,
                                   const CampaignConfig& config) {
  std::uint64_t h = spec.fingerprint();
  h = fnv_fold(h, static_cast<std::uint64_t>(config.bugs));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.grow_suite));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.pool.target_size));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.pool.max_attempts));
  h = fnv_fold(h, config.pool.seed);
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.mwu));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.arms));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.max_count));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.agents));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.max_iterations));
  h = fnv_fold(h, static_cast<std::uint64_t>(config.repair.reward));
  h = fnv_fold_double(h, config.repair.learning_rate);
  h = fnv_fold_double(h, config.repair.exploration);
  h = fnv_fold(h, config.repair.seed);
  return h;
}
}  // namespace

CampaignSession::CampaignSession(datasets::ScenarioSpec base,
                                 CampaignConfig config, OracleHub* hub)
    : base_(std::move(base)),
      config_(config),
      own_hub_(hub == nullptr ? std::make_unique<OracleHub>() : nullptr),
      hub_(hub == nullptr ? own_hub_.get() : hub),
      fingerprint_(campaign_fingerprint(base_, config_)),
      current_tests_(base_.tests),
      trajectory_fold_(util::kFnvOffset) {
  auto& metrics = obs::MetricsRegistry::global();
  bugs_attempted_ = &metrics.counter("campaign.bugs_attempted");
  bugs_repaired_ = &metrics.counter("campaign.bugs_repaired");
  maintenance_runs_ = &metrics.counter("campaign.maintenance_runs");
  bug_seconds_hist_ = &metrics.histogram("campaign.bug_seconds");
  converged_ = &metrics.gauge("campaign.converged");
}

CampaignSession::~CampaignSession() { flush_telemetry(); }

void CampaignSession::flush_telemetry() {
  if (repair_) repair_->flush_telemetry();
  if (pending_cycles_ != 0) scoped_cycles_->add(pending_cycles_);
  if (pending_probes_ != 0) scoped_probes_->add(pending_probes_);
  pending_cycles_ = 0;
  pending_probes_ = 0;
}

void CampaignSession::set_metric_scope(const std::string& prefix) {
  scope_ = std::make_unique<obs::ScopedMetrics>(
      obs::MetricsRegistry::global().scoped(prefix));
  scoped_cycles_ = &scope_->counter("online.cycles");
  scoped_probes_ = &scope_->counter("online.probes");
  scoped_bugs_attempted_ = &scope_->counter("bugs_attempted");
  scoped_bugs_repaired_ = &scope_->counter("bugs_repaired");
  scoped_maintenance_runs_ = &scope_->counter("maintenance_runs");
  scoped_done_ = &scope_->gauge("done");
}

datasets::ScenarioSpec CampaignSession::bug_spec() const {
  datasets::ScenarioSpec spec = base_;
  spec.bug_id = bug_index_;
  if (config_.grow_suite) {
    // The suite has grown by one trigger test per repaired bug, capped at
    // the oracle's 64-test model limit.
    spec.tests = std::min<std::size_t>(64, base_.tests + repaired_so_far_);
  }
  return spec;
}

MwRepairConfig CampaignSession::bug_repair_config() const {
  MwRepairConfig repair_config = config_.repair;
  repair_config.max_count =
      std::min(repair_config.max_count, working_pool_.size());
  repair_config.seed = config_.repair.seed ^ (bug_index_ * 0x9e3779b9ULL);
  return repair_config;
}

void CampaignSession::open_bug_oracle(parallel::SuperstepEngine* workers) {
  bug_lease_ = hub_->oracle_for(bug_spec(), workers);
}

void CampaignSession::open_repair() {
  repair_ = std::make_unique<RepairSession>(bug_repair_config(),
                                            *bug_lease_.oracle, working_pool_);
}

void CampaignSession::do_precompute(parallel::SuperstepEngine* workers) {
  const auto lease = hub_->base_pool(base_, config_.pool, workers);
  working_pool_ = *lease.pool;
  outcome_.precompute_runs = lease.precompute_runs;
  outcome_.initial_pool_size = working_pool_.size();
}

void CampaignSession::start_bug(parallel::SuperstepEngine* workers) {
  bugs_attempted_->add(1);
  if (scope_) scoped_bugs_attempted_->add(1);
  current_bug_ = BugOutcome{};
  current_bug_.bug_id = bug_index_;
  bug_seconds_ = 0.0;

  const datasets::ScenarioSpec spec = bug_spec();
  open_bug_oracle(workers);

  // Incremental maintenance: revalidate the pool against the grown suite
  // (a no-op when nothing changed, a partial re-run otherwise).  The
  // revalidation cost is exactly one suite run per member — an identity
  // of MutationPool::revalidate — so the ledger is analytic and stays
  // correct when the oracle's global run counter is shared with other
  // campaigns.
  if (config_.grow_suite && spec.tests != current_tests_) {
    current_bug_.maintenance_runs = working_pool_.size();
    current_bug_.pool_dropped =
        working_pool_.revalidate(*bug_lease_.oracle, workers);
    current_tests_ = spec.tests;
  }
  current_bug_.pool_size = working_pool_.size();

  if (!working_pool_.empty()) {
    open_repair();
    phase_ = Phase::kOnline;
  } else {
    finish_bug();
  }
}

void CampaignSession::finish_bug() {
  flush_telemetry();
  if (repair_) {
    const RepairOutcome& result = repair_->outcome();
    current_bug_.repaired = result.repaired;
    current_bug_.patch_edits = result.patch.size();
    current_bug_.online_probes = result.probes;
    current_bug_.online_cycles = result.iterations;
    trajectory_fold_ = fnv_fold(trajectory_fold_, repair_->trajectory_hash());
    if (result.repaired) ++repaired_so_far_;
    repair_.reset();
  }
  if (current_bug_.repaired) {
    bugs_repaired_->add(1);
    if (scope_) scoped_bugs_repaired_->add(1);
  }
  maintenance_runs_->add(current_bug_.maintenance_runs);
  if (scope_) scoped_maintenance_runs_->add(current_bug_.maintenance_runs);
  // The campaign-level fingerprint also pins the maintenance ledger.
  trajectory_fold_ = fnv_fold(trajectory_fold_, current_bug_.bug_id);
  trajectory_fold_ =
      fnv_fold(trajectory_fold_,
               static_cast<std::uint64_t>(current_bug_.repaired));
  trajectory_fold_ = fnv_fold(
      trajectory_fold_, static_cast<std::uint64_t>(current_bug_.patch_edits));
  trajectory_fold_ = fnv_fold(trajectory_fold_, current_bug_.online_probes);
  trajectory_fold_ = fnv_fold(
      trajectory_fold_, static_cast<std::uint64_t>(current_bug_.pool_dropped));
  trajectory_fold_ = fnv_fold(
      trajectory_fold_, static_cast<std::uint64_t>(current_bug_.pool_size));
  bug_seconds_hist_->observe(bug_seconds_);
  outcome_.bugs.push_back(current_bug_);
  bug_lease_ = OracleHub::OracleLease{};
  ++bug_index_;
  if (bug_index_ >= config_.bugs) {
    finalize();
  } else {
    phase_ = Phase::kBugStart;
  }
}

void CampaignSession::finalize() {
  converged_->set(repaired_so_far_ == config_.bugs ? 1.0 : 0.0);
  trajectory_fold_ =
      fnv_fold(trajectory_fold_, static_cast<std::uint64_t>(repaired_so_far_));
  if (scope_) scoped_done_->set(1.0);
  phase_ = Phase::kDone;
}

std::size_t CampaignSession::step(std::size_t budget,
                                  parallel::SuperstepEngine* workers) {
  std::size_t used = 0;
  std::size_t probes = 0;
  double probe_seconds = 0.0;
  while (used < budget && !done()) {
    if (phase_ != Phase::kOnline) {
      // A setup unit (it never leaves an online cycle staged).
      std::size_t staged = 0;
      used += stage_unit(staged, workers);
      continue;
    }
    // obs::ScopedTimer is the only clock apr may touch (bit-identity lint
    // domain); cancelled, it is a plain stopwatch.
    obs::ScopedTimer cycle_timer(*bug_seconds_hist_);
    cycle_timer.cancel();
    probe_seconds += repair_->run_cycle(workers);
    close_cycle(cycle_timer.elapsed_seconds());
    ++used;
    probes += probes_last_step_;
  }
  flush_telemetry();
  probes_last_step_ = probes;
  probe_seconds_last_step_ = probe_seconds;
  return used;
}

std::size_t CampaignSession::stage_unit(std::size_t& staged_probes,
                                        parallel::SuperstepEngine* workers) {
  staged_probes = 0;
  probes_last_step_ = 0;
  while (phase_ != Phase::kDone) {
    obs::ScopedTimer unit_timer(*bug_seconds_hist_);
    unit_timer.cancel();
    switch (phase_) {
      case Phase::kPrecompute:
        do_precompute(workers);
        phase_ = Phase::kBugStart;
        return 1;
      case Phase::kBugStart:
        if (bug_index_ >= config_.bugs) {
          // bugs == 0 (or a snapshot taken at the boundary): nothing to
          // start — finalize instead of marching bug_index_ forever.
          finalize();
          return 1;
        }
        start_bug(workers);
        bug_seconds_ += unit_timer.elapsed_seconds();
        return 1;
      case Phase::kOnline:
        staged_probes = repair_->begin_cycle();
        unit_staged_ = true;
        staged_seconds_ = unit_timer.elapsed_seconds();
        return 1;
      case Phase::kFinishBug:
        // Never a resting state (complete_unit closes bugs inline); kept
        // so a snapshot's phase value space is total.
        finish_bug();
        break;
      case Phase::kDone:
        break;
    }
  }
  return 0;
}

void CampaignSession::evaluate_staged(std::size_t j) {
  repair_->evaluate_staged(j);
}

void CampaignSession::complete_unit(double elapsed_seconds) {
  complete_staged(elapsed_seconds);
  flush_telemetry();
}

void CampaignSession::complete_staged(double elapsed_seconds) {
  if (!unit_staged_) return;
  unit_staged_ = false;
  close_cycle(staged_seconds_ + elapsed_seconds);
}

void CampaignSession::close_cycle(double cycle_seconds) {
  const bool finished = repair_->finish_cycle(cycle_seconds);
  probes_last_step_ = repair_->probes_last_cycle();
  if (scope_) {
    ++pending_cycles_;
    pending_probes_ += probes_last_step_;
  }
  bug_seconds_ += cycle_seconds;
  if (finished) finish_bug();
}

std::uint64_t CampaignSession::trajectory_hash() const noexcept {
  if (repair_) return fnv_fold(trajectory_fold_, repair_->trajectory_hash());
  return trajectory_fold_;
}

CampaignSnapshot CampaignSession::snapshot() const {
  if (unit_staged_) {
    // Snapshots are cycle-boundary artifacts; a staged cycle has drawn
    // RNG state the snapshot cannot represent mid-flight.
    throw std::logic_error(
        "CampaignSession::snapshot: staged cycle in flight — complete the "
        "staged unit first");
  }
  CampaignSnapshot snap;
  snap.fingerprint = fingerprint_;
  snap.phase = static_cast<std::uint32_t>(phase_);
  snap.bug_index = bug_index_;
  snap.repaired_so_far = repaired_so_far_;
  snap.current_tests = current_tests_;
  snap.precompute_runs = outcome_.precompute_runs;
  snap.initial_pool_size = outcome_.initial_pool_size;
  snap.trajectory_hash = trajectory_fold_;
  snap.finished_bugs = outcome_.bugs;
  snap.current_bug = current_bug_;
  snap.working_pool.assign(working_pool_.mutations().begin(),
                           working_pool_.mutations().end());
  if (repair_ && !repair_->done()) {
    snap.has_repair_state = true;
    snap.repair = repair_->save();
  }
  return snap;
}

std::unique_ptr<CampaignSession> CampaignSession::resume(
    const CampaignSnapshot& snap, datasets::ScenarioSpec base,
    CampaignConfig config, OracleHub* hub) {
  auto session = std::make_unique<CampaignSession>(std::move(base),
                                                   std::move(config), hub);
  if (snap.fingerprint != session->fingerprint_) {
    throw std::invalid_argument(
        "CampaignSession::resume: snapshot fingerprint mismatch (different "
        "scenario or configuration)");
  }
  // The snapshot may come from an untrusted file: refuse state the
  // session could never have produced before acting on it.
  if (snap.phase > static_cast<std::uint32_t>(Phase::kDone) ||
      snap.bug_index > session->config_.bugs) {
    throw std::invalid_argument(
        "CampaignSession::resume: phase or bug index out of range");
  }
  const auto phase = static_cast<Phase>(snap.phase);
  if (phase == Phase::kPrecompute) return session;  // nothing ran yet.

  session->phase_ = phase;
  session->bug_index_ = snap.bug_index;
  session->repaired_so_far_ = snap.repaired_so_far;
  session->current_tests_ = snap.current_tests;
  session->outcome_.precompute_runs = snap.precompute_runs;
  session->outcome_.initial_pool_size = snap.initial_pool_size;
  session->outcome_.bugs = snap.finished_bugs;
  session->current_bug_ = snap.current_bug;
  session->trajectory_fold_ = snap.trajectory_hash;
  session->working_pool_ = MutationPool::from_mutations(snap.working_pool);

  const bool opens_oracle =
      phase == Phase::kOnline ||
      (phase == Phase::kBugStart && snap.bug_index < session->config_.bugs);
  if (opens_oracle) {
    // A resumed session skips phase 1, so a fresh hub (a restored
    // server's, or the session's private one) would hold no interned
    // base pool and build this bug's oracle cold (no wave table, no
    // primed cache — for every later tenant on it too).  Re-interning
    // the pool lets the hub prime the oracle as it would have before the
    // restart.  The lease itself is dropped: the pool and precompute_runs
    // come from the snapshot.  Best-effort — a failed warm-up leaves the
    // cold oracle, which is merely slower.
    try {
      (void)session->hub_->base_pool(session->base_, session->config_.pool);
    } catch (...) {
    }
  }

  if (phase == Phase::kOnline) {
    if (!snap.has_repair_state) {
      throw std::invalid_argument(
          "CampaignSession::resume: online phase without repair state");
    }
    session->open_bug_oracle();
    session->open_repair();
    session->repair_->restore(snap.repair);
  }
  return session;
}

}  // namespace mwr::apr
