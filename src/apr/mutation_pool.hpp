// Precomputed safe-mutation pool — phase 1 of MWRepair (paper §III-C).
//
// All prior search-based APR generates safe mutations on demand inside the
// inner search loop, which (a) re-tests duplicate mutations and (b) makes
// every synchronized iteration wait for the thread that happened to need
// the most safe mutations (the max-order-statistic stall the paper
// quantifies: with 64 threads drawing 1..100 mutations, ~99.9% of
// iterations pay the worst-decile cost).  Precomputing the pool is a
// one-time, embarrassingly-parallel cost that is amortized over every bug
// repaired in the same program, and it makes the online phase's per-probe
// work constant: draw a subset, run the suite once.
//
// The pool also supports incremental maintenance: when the regression suite
// grows (a repaired bug's trigger test is added), revalidate() re-runs the
// pool against the new oracle and drops members that the new tests expose.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "apr/mutation.hpp"
#include "apr/test_oracle.hpp"

namespace mwr::parallel {
class SuperstepEngine;
}  // namespace mwr::parallel

namespace mwr::apr {

struct PoolConfig {
  std::size_t target_size = 1000;   ///< safe mutations to collect.
  std::size_t max_attempts = 200000;///< candidate-generation budget.
  /// Sizes precompute's validation rounds (so it decides attempts and
  /// precompute_runs); the suite runs fan out over the caller's engine.
  std::size_t threads = 4;
  std::uint64_t seed = 1;
};

class MutationPool {
 public:
  /// Phase-1 precompute: generate random candidate mutations, validate each
  /// against the required suite (TestOracle::passes_alone) — in blocks
  /// over `workers`, inline when null — and keep the safe ones
  /// (deduplicated) until target_size is reached or the attempt budget is
  /// exhausted.  The pool is the same for any engine.  Each suite run is
  /// counted on the oracle, booked once per block.  The oracle's
  /// cache is left as it was: a caller that evaluates pooled patches on it
  /// primes it (TestOracle::prime_cache, or prime_wave as MwRepair::run
  /// does).
  [[nodiscard]] static MutationPool precompute(
      const TestOracle& oracle, const PoolConfig& config,
      parallel::SuperstepEngine* workers = nullptr);

  /// Wraps already-validated mutations as a pool (deduplicated, sorted by
  /// key).  Used by callers with custom candidate generators — e.g. the
  /// fault-localization front-end — that did their own safety validation.
  [[nodiscard]] static MutationPool from_mutations(
      std::vector<Mutation> mutations);

  [[nodiscard]] std::span<const Mutation> mutations() const noexcept {
    return pool_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return pool_.size(); }
  [[nodiscard]] bool empty() const noexcept { return pool_.empty(); }

  /// Candidates generated and validated during precompute.
  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }

  /// Re-runs every pool member against (a possibly different) oracle and
  /// drops the ones that no longer pass — the incremental-update path for a
  /// grown test suite.  Members are checked in blocks over `workers`,
  /// inline when null, each block booking its suite runs and cache counts
  /// once: order, survivors and counter totals are those of a serial
  /// per-member evaluate() pass, since each member's verdict is
  /// independent.  Returns the number of dropped mutations.
  std::size_t revalidate(const TestOracle& oracle,
                         parallel::SuperstepEngine* workers = nullptr);

 private:
  std::vector<Mutation> pool_;
  std::uint64_t attempts_ = 0;
};

}  // namespace mwr::apr
