// Simulated test-suite execution: the deterministic semantics of a bug
// scenario.
//
// The model (calibrated to the paper's published regularities, §III-B):
//
//   safety        — a mutation breaks each required test independently with
//                   a per-test rate b calibrated so that a single mutation
//                   passes the whole suite with probability safe_rate
//                   ((1-b)^T = safe_rate; ~55% for whole-statement edits on
//                   the C scenarios — the cross-benchmark figure the paper
//                   cites is ~30%, rising for coarse statement edits).
//                   "Safe" means it breaks none of the current tests.
//                   Breakage is a deterministic function of the mutation
//                   key, the test index, and the scenario seed, so the same
//                   edit always behaves identically — and a grown suite can
//                   expose a previously-safe mutation only through its new
//                   tests, which drives incremental pool maintenance.
//   interference  — every unordered pair of safe mutations interferes with
//                   probability q = spec.interference(), breaking one
//                   hash-chosen test.  This reproduces Fig 4a's decay:
//                   P(pass | x safe mutations) = (1-q)^(x choose 2).
//   repair        — a safe mutation is repair-relevant with probability
//                   repair_rate; the bug-inducing test passes iff the patch
//                   contains at least min_repair_edits relevant mutations.
//                   A *repair* passes the bug test AND the required suite.
//
// Because the semantics are a pure function of (spec, mutation key), the
// oracle memoizes them in an OracleCache (on by default; construct with
// enable_cache = false for the uncached reference path).  prime_cache()
// freezes a mutation pool's per-member masks and relevance; prime_wave()
// adds the probe-wave table.  evaluate() then has two paths: a patch whose
// members are all distinct wave-pool members is evaluated through
// evaluate_pooled() without hashing; any other patch takes the reference
// path, which reads pooled members' semantics from the primed index,
// computes the rest, and hashes every safe pair.  Cache traffic is
// exported as the obs counters oracle.mask_cache_{hits,misses} (pooled /
// computed members) and oracle.pair_cache_{hits,misses} (safe pairs
// resolved by the wave / hashed).  Waved and uncached evaluation are
// bit-identical (golden-tested).
//
// Every evaluate() call counts one test-suite run — the unit in which the
// paper measures APR cost (§IV-G) — via a relaxed atomic, so concurrent
// probes from parallel sweeps can share one oracle.  The staged path of
// a RepairSession counts its probes into a ProbeTally instead and books
// them once per step, so suite_runs() is exact between steps; phase 1's
// lone-mutation checks (passes_alone) book one tally per block of members.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>

#include "apr/interference_graph.hpp"
#include "apr/mutation.hpp"
#include "apr/oracle_cache.hpp"
#include "apr/program.hpp"
#include "obs/metrics.hpp"

namespace mwr::parallel {
class SuperstepEngine;
}  // namespace mwr::parallel

namespace mwr::apr {

/// Outcome of running the suite on a patched program.
struct Evaluation {
  std::uint32_t required_passed = 0;
  std::uint32_t required_total = 0;
  bool bug_test_passed = false;

  /// GenProg-style fitness: passing required tests weighted 1, the
  /// bug-inducing test weighted like a required test.
  [[nodiscard]] std::uint32_t fitness() const noexcept {
    return required_passed + (bug_test_passed ? 1u : 0u);
  }
  /// A repair passes everything.
  [[nodiscard]] bool is_repair() const noexcept {
    return bug_test_passed && required_passed == required_total;
  }

  friend bool operator==(const Evaluation&, const Evaluation&) = default;
};

class TestOracle {
 public:
  /// `enable_cache = false` disables all memoization — the reference path
  /// the golden equivalence tests and the hot-path bench compare against.
  explicit TestOracle(const ProgramModel& program, bool enable_cache = true);

  /// Runs the (simulated) suite on original-program-plus-patch: through
  /// evaluate_pooled() when the oracle is wave_ready() and every member is
  /// a distinct wave-pool member (key and full Mutation equality, in any
  /// order), the reference path otherwise.  Either way one suite run.
  [[nodiscard]] Evaluation evaluate(std::span<const Mutation> patch) const;

  /// Fitness of the unpatched program: passes all required tests, fails the
  /// bug-inducing test.
  [[nodiscard]] std::uint32_t baseline_fitness() const noexcept {
    return required_tests_;
  }

  [[nodiscard]] std::uint32_t required_tests() const noexcept {
    return required_tests_;
  }

  /// Suite runs and cache traffic counted by a caller instead of on the
  /// shared counters, then added to them at once by book().
  struct ProbeTally {
    std::uint64_t runs = 0;
    std::uint64_t mask_hits = 0;
    std::uint64_t mask_misses = 0;
    std::uint64_t pair_hits = 0;
  };

  /// Model introspection (deterministic; does not count as a suite run).
  [[nodiscard]] bool is_safe(const Mutation& m) const;
  [[nodiscard]] bool is_repair_relevant(const Mutation& m) const;

  /// Whether `m` alone passes the required suite: the verdict of
  /// evaluate({&m, 1}), counted into `tally` (one run, and the mask hit
  /// or miss that call books) instead of on the shared counters.
  /// MutationPool's precompute and revalidation book one tally per block
  /// of members.
  [[nodiscard]] bool passes_alone(const Mutation& m, ProbeTally& tally) const;

  /// Eagerly memoizes the pooled mutations' masks/relevance into the
  /// lock-free primed index the reference path reads, computing them in
  /// blocks over `workers` when given (the index is the same for any
  /// engine).  No-op when the cache is disabled or the same pool is
  /// already primed.  Must not race evaluate(); does not count suite runs.
  void prime_cache(std::span<const Mutation> pool,
                   parallel::SuperstepEngine* workers = nullptr) const;

  /// The interference graph of `pool` (key-sorted and unique): every
  /// pair of members hashed once, C(n, 2) hashes, split over `workers`
  /// when given (the graph is the same for any worker count).  Row x
  /// holds the partners y > x, so each interfering pair is stored once.
  /// Valid for every oracle of this program, whatever its bug or suite
  /// size (see interference_graph.hpp).  Counts no suite runs; bumps the
  /// obs counter oracle.interference_graph_builds.
  [[nodiscard]] InterferenceGraph interference_graph(
      std::span<const Mutation> pool,
      parallel::SuperstepEngine* workers = nullptr) const;

  /// Builds the eager probe-wave table over `pool` (implies prime_cache):
  /// per-member broken masks flattened for the SIMD gather kernel,
  /// safe / repair-relevant bitsets with the localized-coverage predicate
  /// folded in, and the sparse upper-triangular CSR of interfering safe
  /// pairs — every pair the scenario can ever charge a pooled probe, in
  /// the row of its lower member.  The pairs come from `graph`, which
  /// must be this program's graph of a superset of `pool`
  /// (std::invalid_argument otherwise), so a graph built once serves many
  /// oracles at O(n + edges) each; with no graph one is built over `pool`.
  /// Pools larger than OracleCache::kMaxWavePool skip the wave (the
  /// eager pair pass would not amortize); evaluate() works identically
  /// either way.  The semantics and the partner rows are computed in
  /// blocks over `workers` when given; the table is the same for any
  /// engine.  Same no-race contract as prime_cache; no suite runs
  /// counted.  The oracle's owner calls it: the OracleHub for every
  /// campaign's oracles, MwRepair::run for a single search.
  void prime_wave(std::span<const Mutation> pool,
                  const InterferenceGraph* graph = nullptr,
                  parallel::SuperstepEngine* workers = nullptr) const;

  /// True once prime_wave has installed the table for the current pool.
  [[nodiscard]] bool wave_ready() const noexcept {
    return cache_ && cache_->wave_ready();
  }

  /// The installed wave table: its primed pool members, masks, bitsets
  /// and partner rows (valid only while wave_ready()).
  [[nodiscard]] const OracleCache::WaveTable& wave() const noexcept {
    return cache_->wave();
  }

  /// Pooled twin of evaluate() for wave-ready oracles: `pool_indices`
  /// names the patch as strictly ascending positions in the primed pool
  /// (the canonical patch in index space — see sample_from_pool_indexed).
  /// evaluate() routes pooled patches here; bit-identical to the
  /// reference path over the same mutations.  Counts one suite run and
  /// books one mask hit per member and one pair hit per safe pair.
  [[nodiscard]] Evaluation evaluate_pooled(
      std::span<const std::uint32_t> pool_indices) const;

  /// evaluate_pooled() that counts its suite run and cache hits into
  /// `tally`: suite_runs() and the cache counters see them only at
  /// book().  The hot staged path uses it so concurrent sessions do not
  /// write shared atomics once per probe.
  [[nodiscard]] Evaluation evaluate_pooled(
      std::span<const std::uint32_t> pool_indices, ProbeTally& tally) const;
  /// Adds `tally` to suite_runs() and the cache counters; zeroes it.
  void book(ProbeTally& tally) const;

  /// Position of `m` in the wave's pool, or OracleCache::npos when the
  /// oracle is not wave_ready() or `m` is not a wave-pool member.  Key
  /// lookup, then full Mutation equality: a swap's key orders its
  /// operands, and the wave's relevance bits bake in the coverage of the
  /// pool member's concrete target.
  [[nodiscard]] std::size_t wave_index_of(const Mutation& m) const {
    if (!wave_ready()) return OracleCache::npos;
    const std::size_t idx = cache_->pool_index(m.key());
    return idx != OracleCache::npos && cache_->wave().pool[idx] == m
               ? idx
               : OracleCache::npos;
  }

  [[nodiscard]] bool cache_enabled() const noexcept {
    return cache_ != nullptr;
  }

  /// Total suite runs so far (the cost currency of §IV-G).
  [[nodiscard]] std::uint64_t suite_runs() const noexcept {
    return suite_runs_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] const ProgramModel& program() const noexcept {
    return *program_;
  }

 private:
  /// The raw (uncached) semantics computations.
  [[nodiscard]] std::uint64_t broken_mask_single(const Mutation& m) const;
  [[nodiscard]] MutationSemantics compute_semantics(const Mutation& m) const;
  /// From the primed index when pooled, computed otherwise; counts one
  /// mask-cache hit or miss.
  [[nodiscard]] MutationSemantics semantics_for(const Mutation& m) const;
  /// The interference hash of the pair (lo, hi), lo < hi:
  /// stable_hash_of_state(pair_lo_term(lo) ^ pair_hi_term(hi)).  The
  /// graph build computes each key's two terms once instead of per pair.
  [[nodiscard]] std::uint64_t pair_hash(std::uint64_t lo,
                                        std::uint64_t hi) const noexcept {
    return stable_hash_of_state(pair_lo_term(lo) ^ pair_hi_term(hi));
  }
  [[nodiscard]] std::uint64_t pair_lo_term(std::uint64_t lo) const noexcept;
  [[nodiscard]] static std::uint64_t pair_hi_term(std::uint64_t hi) noexcept {
    return stable_hash_state(0, 0, 0, hi);
  }
  /// Whether the pair with hash `h` interferes.
  [[nodiscard]] bool interferes(std::uint64_t h) const noexcept {
    return (h >> 11) < interference_threshold_;  // hash_to_unit(h) < rate
  }
  /// The one test an interfering pair with hash `h` breaks.
  [[nodiscard]] std::uint64_t interference_test_bit(
      std::uint64_t h) const noexcept {
    return std::uint64_t{1} << (h % required_tests_);
  }
  [[nodiscard]] std::uint64_t pair_interference_mask(std::uint64_t lo,
                                                     std::uint64_t hi) const;

  const ProgramModel* program_;
  std::uint32_t required_tests_;
  double interference_;
  std::uint64_t interference_threshold_;  ///< unit_threshold(interference_)
  /// unit_threshold of the per-test break rate.
  std::uint64_t break_threshold_ = 0;
  // unit_threshold of the relevance rate, hoisted out of
  // is_repair_relevant: the plain repair_rate, or the region-rescaled rate
  // when relevance is localized (constant per scenario either way, so the
  // hash check is a pure function of the mutation key and therefore
  // cacheable).
  std::uint64_t relevance_threshold_ = 0;
  mutable std::atomic<std::uint64_t> suite_runs_{0};

  // Memoization (null when disabled).  The cache only ever stores pure
  // functions of the spec, so filling it from the const prime_cache() and
  // prime_wave() preserves logical constness; evaluate() only reads it.
  mutable std::unique_ptr<OracleCache> cache_;
  obs::Counter* mask_hits_ = nullptr;
  obs::Counter* mask_misses_ = nullptr;
  obs::Counter* pair_hits_ = nullptr;
  obs::Counter* pair_misses_ = nullptr;
};

}  // namespace mwr::apr
