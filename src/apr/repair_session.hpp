// Step-wise execution of the MWRepair online phase (Fig 6) — one update
// cycle per step() call.
//
// MwRepair::run() is the right shape for a batch CLI but the wrong shape
// for a server: a daemon multiplexing thousands of campaigns needs to
// advance each search a few cycles at a time (deficit-round-robin
// scheduling), checkpoint a search between cycles, and resume it after a
// restart without replaying paid-for probes.  RepairSession is the same
// algorithm unrolled into a resumable object: construct, call step()
// until it returns true, read outcome().  MwRepair::run() is now a thin
// loop over a session, so the two paths cannot diverge — every draw from
// the RngStream happens in the same order as the historical monolithic
// loop, making session-stepped trajectories bit-identical to run() (and
// to every prior release).
//
// Checkpointing: save() captures everything the next cycle depends on —
// MWU strategy state (MwuStrategy::export_state), the 256-bit RNG state,
// cycle / probe counters, and the running trajectory hash.  restore() into
// a freshly constructed session over the same oracle + pool continues the
// search bit-identically (pinned by tests/test_serve.cpp).  Snapshots are
// only meaningful at cycle boundaries, which is the only place step()
// returns control.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "apr/mwrepair.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "core/mwu.hpp"
#include "obs/metrics.hpp"

namespace mwr::parallel {
class SuperstepEngine;
}  // namespace mwr::parallel

namespace mwr::apr {

class RepairSession {
 public:
  /// Mid-search state between two update cycles; everything is plain
  /// numbers so checkpoint writers can encode it losslessly.
  struct State {
    std::vector<double> strategy;          ///< MwuStrategy::export_state.
    std::uint64_t rng_seed = 0;
    std::array<std::uint64_t, 4> rng_state{};
    std::uint64_t iterations = 0;          ///< completed update cycles.
    std::uint64_t probes = 0;              ///< suite runs so far.
    std::uint64_t trajectory_hash = 0;
  };

  /// `oracle` and `pool` must outlive the session.  The session never
  /// primes the oracle (priming must not race other sessions' probes on
  /// a shared one): whoever owns it does, before the session exists —
  /// the OracleHub for campaigns, MwRepair::run for a single search.  It
  /// takes the probe-wave fast path when the oracle's wave covers `pool`.
  RepairSession(const MwRepairConfig& config, const TestOracle& oracle,
                const MutationPool& pool);
  /// Flushes pending telemetry (see flush_telemetry).
  ~RepairSession();

  RepairSession(const RepairSession&) = delete;
  RepairSession& operator=(const RepairSession&) = delete;

  /// Runs one MWU update cycle (sample -> probe -> reward -> update), or
  /// finishes early when a probe repairs.  Returns true when the session
  /// is done (repair found or iteration budget exhausted); further calls
  /// are no-ops returning true.  `workers` optionally fans the suite runs
  /// out (bit-identical for any worker count, as in MwRepair::run).  It
  /// is run_cycle, then finish_cycle with the cycle's wall time.
  bool step(parallel::SuperstepEngine* workers = nullptr);

  /// The one online-cycle driver, shared by step() and
  /// CampaignSession::step: draws the cycle's arms, stages and evaluates
  /// its probes, and leaves the cycle for finish_cycle().  With `workers`
  /// the calling thread stages probe j and releases it into the running
  /// sweep (parallel_for's producer) while the workers evaluate the
  /// probes already out, and one participant folds the staged draws into
  /// the trajectory hash in probe order, trailing the release mark.
  /// Inline it stages every probe, then evaluates them.  Returns the wall
  /// seconds of the evaluations: from the end of the arm draw (inline: of
  /// the staging) to the last evaluation (telemetry only).
  double run_cycle(parallel::SuperstepEngine* workers);

  // --- staged execution (DESIGN.md §14) ---
  //
  // The same cycle as hand-driven calls, so a caller can fan the probe
  // evaluations of many sessions out together:
  //
  //   begin_cycle()       all of the cycle's stochastic draws (arm sample,
  //                       then each probe's patch draw and acceptance) —
  //                       everything RNG-ordered happens here, in the
  //                       same order as the historical loop.
  //   evaluate_staged(j)  evaluates staged probe j.  Pure and memoized:
  //                       callable concurrently for distinct j, in any
  //                       order, interleaved with other sessions' probes.
  //   finish_cycle()      folds the draws into trajectory_hash() (all of
  //                       them here; run_cycle's sweep leaves none), then
  //                       rewards, MWU update, early-repair exit, budget
  //                       check.
  //
  // run_cycle makes the same draws in the same order and folds them in
  // the same order, so both paths give the same hash and outcome.
  // Between the draws and finish_cycle trajectory_hash() does not yet
  // cover the cycle.
  //
  // Telemetry: the staged calls count cycles, probes, cycle seconds and
  // the oracle's suite runs and cache hits into the session, not into
  // the shared registry.  step(), the end of the search and destruction
  // flush them, and so does flush_telemetry(); the totals are then exact.
  // Concurrently stepped sessions thus write the shared atomics once per
  // step instead of once per probe.

  /// Stages one cycle's probes; returns how many (0 when already done).
  /// Every call must be matched by finish_cycle() after all staged
  /// probes were evaluated.
  std::size_t begin_cycle();
  /// Evaluates staged probe `j` (< begin_cycle()'s return value).
  /// Thread-safe across distinct j on one session and across sessions
  /// sharing an oracle.
  void evaluate_staged(std::size_t j);
  /// Completes the staged cycle; returns true when the session finished.
  /// `elapsed_seconds` is the caller-attributed wall time of the cycle,
  /// observed once into repair.online.cycle_seconds and accumulated into
  /// phase.online.seconds (telemetry only — never trajectory-relevant).
  bool finish_cycle(double elapsed_seconds = 0.0);

  /// Adds the staged calls' pending counts to repair.online.{cycles,
  /// probes,cycle_seconds} and to the oracle's suite runs and cache
  /// counters.  Not concurrently with evaluate_staged().
  void flush_telemetry();

  /// True when this session evaluates probes through the oracle's eager
  /// wave table (no per-patch materialization or cache probing).  Every
  /// session samples in index space; without the wave, evaluate_staged
  /// materializes each patch for TestOracle::evaluate.  Purely an
  /// execution detail: trajectories are bit-identical either way.
  [[nodiscard]] bool wave_fast_path() const noexcept {
    return wave_fast_path_;
  }

  [[nodiscard]] bool done() const noexcept { return done_; }
  /// Valid once done(); partially filled (probes/iterations) before that.
  [[nodiscard]] const RepairOutcome& outcome() const noexcept {
    return outcome_;
  }
  /// Suite runs the most recent step() issued (per-cycle cost for
  /// scheduler accounting and probe-latency math).
  [[nodiscard]] std::size_t probes_last_cycle() const noexcept {
    return probes_last_cycle_;
  }
  /// Running FNV-1a fold over every sampled arm, drawn patch, and reward
  /// of the search so far — the bit-identity fingerprint the
  /// checkpoint/resume tests compare.
  [[nodiscard]] std::uint64_t trajectory_hash() const noexcept {
    return trajectory_hash_;
  }

  [[nodiscard]] const MwRepairConfig& config() const noexcept {
    return repair_.config();
  }

  /// Snapshot between cycles; callable only while !done().
  [[nodiscard]] State save() const;
  /// Restores a snapshot taken from an identically configured session
  /// over the same (oracle, pool).  Throws std::invalid_argument on a
  /// strategy-state shape mismatch.
  void restore(const State& state);

 private:
  void finish(bool repaired);
  /// The cycle's arm sample and per-cycle setup; returns the probe count
  /// (0 when done).  begin_cycle = draw_cycle + stage_probe(0..n-1).
  std::size_t draw_cycle();
  /// Probe j's patch draw and acceptance; in j order, after draw_cycle.
  void stage_probe(std::size_t j);
  /// Folds staged probes [folded_, end) into fold_hash_; every probe
  /// below `end` must be staged.
  void fold_through(std::size_t end);

  MwRepair repair_;                  // validated/clamped config + arm grid.
  const TestOracle* oracle_;
  const MutationPool* pool_;
  std::unique_ptr<core::MwuStrategy> strategy_;
  util::RngStream rng_;
  std::uint32_t baseline_;
  bool done_ = false;
  std::size_t probes_last_cycle_ = 0;
  std::uint64_t trajectory_hash_;
  RepairOutcome outcome_;
  double online_seconds_ = 0.0;      // accumulated across steps.

  // Wave fast path: working-pool position -> primed-pool position.
  // Usable only when every working member is byte-equal to the pool member
  // its key names (swap orientation matters for coverage); monotone, since
  // both pools are key-sorted.
  bool wave_fast_path_ = false;
  bool wave_identity_ = false;  ///< map is the identity — skip translation.
  std::vector<std::uint32_t> wave_map_;

  // Scratch reused across cycles.  Each staged patch is its ascending
  // working-pool indices (the canonical patch in index space).
  std::vector<std::vector<std::uint32_t>> index_patches_;
  std::vector<std::size_t> staged_arms_;
  std::vector<double> acceptance_;
  std::vector<Evaluation> evaluations_;
  std::vector<double> rewards_;

  // The staged cycle's fold: trajectory_hash_ extended by the cycle
  // number and probes [0, folded_), committed by finish_cycle.
  std::uint64_t fold_hash_ = 0;
  std::size_t folded_ = 0;

  // Telemetry pending a flush_telemetry(); tallies_ holds one slot per
  // staged wave probe so concurrent evaluate_staged calls never share one.
  std::vector<TestOracle::ProbeTally> tallies_;
  TestOracle::ProbeTally pending_tally_;
  std::uint64_t pending_cycles_ = 0;
  std::uint64_t pending_probes_ = 0;
  std::vector<double> pending_cycle_seconds_;

  // Global telemetry handles, fetched once (same names as MwRepair::run).
  obs::Counter* cycle_counter_;
  obs::Counter* probe_counter_;
  obs::Histogram* cycle_seconds_;
  obs::Histogram* phase_seconds_;
  obs::Gauge* repaired_gauge_;
};

}  // namespace mwr::apr
