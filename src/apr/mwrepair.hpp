// MWRepair — the paper's algorithm (Fig 6): online statistical estimation
// of how many precomputed safe mutations to combine per probe.
//
// The bandit's arms are *mutation counts*, not individual mutations; that
// encoding is what keeps the option set small enough for MWU to converge
// while the underlying edit space stays super-exponential (DESIGN.md
// decision D1).  Each update cycle, the chosen MWU realization names one
// count per agent; each agent draws that many pooled mutations uniformly,
// applies them, and runs the suite once.  A probe that passes everything is
// a repair and terminates the search immediately (Fig 6 line 8).
//
// Reward (DESIGN.md decision D3): Fig 6 literally rewards fitness
// non-decrease, but that signal is monotone decreasing in the combination
// size, so taken alone it drives every MWU variant to the smallest arm.
// The paper's stated intent is to reward the *density of safe mutations*
// the probe validates (§III-B: "we use the density of safe mutations,
// which the search does sample, as a proxy").  kSafeDensityProxy therefore
// scales acceptance by the combination size so the expected reward of arm
// x is proportional to x * P(pass | x) — the per-probe count of validated
// safe mutations — whose mode tracks the repair-density optimum of Fig 4b.
// kFitnessNonDecrease implements the literal rule and is kept for the
// ablation bench.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "core/mwu.hpp"

namespace mwr::apr {

enum class RewardMode {
  kSafeDensityProxy,     ///< E[reward | arm x] proportional to x * P(pass | x).
  kFitnessNonDecrease,   ///< literal Fig 6: reward = [f(P') >= f(P)].
};

/// The reward of one probe that did not repair: 1.0 or 0.0 by `mode`.
/// `fitness_kept` is f(P') >= f(P), `acceptance` the probe's uniform draw
/// in [0, 1) and `patch_size` the number of mutations it combined.  The
/// one rule RepairSession's online cycle and ArmProbeOracle both apply;
/// inline because it runs once per probe on the online path.
[[nodiscard]] inline double probe_reward(RewardMode mode, bool fitness_kept,
                                         double acceptance,
                                         std::size_t patch_size,
                                         std::size_t max_count) noexcept {
  switch (mode) {
    case RewardMode::kFitnessNonDecrease:
      return fitness_kept ? 1.0 : 0.0;
    case RewardMode::kSafeDensityProxy:
      // Accept in proportion to the validated combination size, making
      // E[reward | x] proportional to x * P(pass | x).
      return (fitness_kept && acceptance < static_cast<double>(patch_size) /
                                               static_cast<double>(max_count))
                 ? 1.0
                 : 0.0;
  }
  return 0.0;
}

struct MwRepairConfig {
  core::MwuKind mwu = core::MwuKind::kStandard;
  std::size_t arms = 64;          ///< bandit arms (distinct counts).
  std::size_t max_count = 256;    ///< largest combination size considered.
  std::size_t agents = 16;        ///< parallel probes per cycle (Standard).
  std::size_t max_iterations = 500;
  RewardMode reward = RewardMode::kSafeDensityProxy;
  double learning_rate = 0.10;
  double exploration = 0.05;
  std::uint64_t seed = 7;
  /// Worker threads for probe evaluation within a cycle.  Patch sampling
  /// and reward draws stay sequential, so results are bit-identical for
  /// any thread count; only the (expensive, independent) suite runs fan
  /// out.  1 = evaluate inline.
  std::size_t eval_threads = 1;
};

struct RepairOutcome {
  bool repaired = false;
  Patch patch;                     ///< the repairing patch, if any.
  std::size_t iterations = 0;      ///< completed MWU update cycles.
  std::uint64_t probes = 0;        ///< online-phase suite runs.
  std::size_t preferred_count = 0; ///< combination size MWU favored at exit.
  std::vector<double> arm_probabilities;
};

class MwRepair {
 public:
  explicit MwRepair(MwRepairConfig config);

  /// Phase 2: runs the online search against a precomputed pool.
  /// The pool must be non-empty; counts are clamped to the pool size.
  [[nodiscard]] RepairOutcome run(const TestOracle& oracle,
                                  const MutationPool& pool) const;

  /// The mutation count arm `arm` (< config().arms) stands for: a
  /// geometric grid over [1, max_count], tabulated at construction
  /// because the online cycle asks once per probe.
  [[nodiscard]] std::size_t count_for_arm(std::size_t arm) const {
    return counts_[arm];
  }

  [[nodiscard]] const MwRepairConfig& config() const noexcept {
    return config_;
  }

 private:
  MwRepairConfig config_;
  std::vector<std::size_t> counts_;  ///< count_for_arm, one per arm.
};

// A whole repair — precompute a pool for a scenario, then search it — is a
// one-bug apr::run_campaign (apr/campaign.hpp), the one driver repair_tool
// and the campaign server share.  MwRepair::run stays the research API
// over a pool the caller built.  The two agree field for field when the
// pool holds at least max_count members; below that a campaign clamps
// max_count to its working pool, which reshapes the arm grid.

}  // namespace mwr::apr
