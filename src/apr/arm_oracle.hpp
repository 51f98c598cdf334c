// ArmProbeOracle — the APR probe semantics exposed through the generic
// core::CostOracle interface, so the SPMD drivers (including the
// multi-process transport worlds) can run the *repair* search, not just
// synthetic Bernoulli options.
//
// Each option is one MWRepair arm: a combination size from the same
// geometric grid MwRepair::count_for_arm uses.  sample(arm, rng) draws
// that many pooled mutations, runs the (simulated) suite once, and
// returns the safe-density-proxy reward (DESIGN.md decision D3) — the
// exact per-probe semantics of the Fig 6 online phase, minus the
// early-exit on repair (the SPMD drivers converge on arm popularity
// instead).
//
// Multi-process worlds fork after construction; the constructor builds
// the TestOracle's probe wave over the pool, so every worker inherits it
// read-only through copy-on-write pages instead of re-deriving mutation
// semantics and pair interference per process.
#pragma once

#include <cstddef>

#include "apr/mutation_pool.hpp"
#include "apr/mwrepair.hpp"
#include "apr/test_oracle.hpp"
#include "core/mwu.hpp"

namespace mwr::apr {

class ArmProbeOracle final : public core::CostOracle {
 public:
  /// Both referents must outlive the oracle.  Primes `oracle`'s probe wave
  /// with the pool (one-time cost; no suite runs).  Throws
  /// std::invalid_argument on an empty pool.
  ArmProbeOracle(const TestOracle& oracle, const MutationPool& pool,
                 const MwRepairConfig& config);

  [[nodiscard]] std::size_t num_options() const override {
    return repair_.config().arms;
  }

  /// One probe: sample count_for_arm(option) pooled mutations, evaluate,
  /// reward 1.0 with the safe-density acceptance rule (or the literal
  /// fitness-non-decrease rule when so configured), else 0.0.
  [[nodiscard]] double sample(std::size_t option,
                              util::RngStream& rng) const override;

  /// Combination size the given arm stands for.
  [[nodiscard]] std::size_t count_for_arm(std::size_t arm) const {
    return repair_.count_for_arm(arm);
  }

  /// Suite runs the underlying oracle has paid so far.
  [[nodiscard]] std::uint64_t suite_runs() const noexcept {
    return oracle_->suite_runs();
  }

 private:
  const TestOracle* oracle_;
  const MutationPool* pool_;
  MwRepair repair_;  ///< arm-grid geometry + reward configuration.
};

}  // namespace mwr::apr
