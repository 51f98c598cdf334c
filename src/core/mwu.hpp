// The generic MWU interface of the paper (Fig 6 consumes it as MWU_Init /
// MWU_Sample / MWU_Update) plus the shared configuration and the run driver
// used by the evaluation harness.
//
// Each update cycle has three steps:
//   1. sample()   — the algorithm names the options its agents will probe
//                   this cycle (one entry per agent / CPU);
//   2. (caller)   — each probe is evaluated through a CostOracle, yielding a
//                   binary reward;
//   3. update()   — the algorithm folds the rewards back into its state.
// converged() is checked after every update; Table II counts the number of
// completed cycles, Table IV multiplies by cpus_per_cycle().  run_mwu is the
// one loop that drives these steps; instrumentation (the regret trace of
// core/regret) attaches to it through a CycleObserver instead of copying it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/option_set.hpp"
#include "util/rng.hpp"

namespace mwr::core {

/// Which MWU realization to instantiate: the paper's three, plus Exp3 as a
/// library extension (see core/exp3_mwu.hpp; excluded from the paper-table
/// benches).
enum class MwuKind { kStandard, kSlate, kDistributed, kExp3 };

[[nodiscard]] std::string to_string(MwuKind kind);

/// Shared configuration.  Defaults follow the paper's experimental design
/// (§IV-B): exploration probabilities mu = gamma = 0.05, error threshold
/// epsilon = 0.05, iteration cap 10000, Standard/Slate convergence tolerance
/// 1e-5, Distributed plurality threshold 30%.
struct MwuConfig {
  std::size_t num_options = 0;      ///< k — set per dataset.
  std::size_t num_agents = 64;      ///< n — parallel threads for Standard.
  std::size_t max_iterations = 10000;
  /// eta <= 1/2; eta = epsilon/2 for the error threshold epsilon = 0.05
  /// (§IV-B), which enters only through this value.
  double learning_rate = 0.025;
  double exploration = 0.05;        ///< mu (Distributed) = gamma (Slate).
  double convergence_tol = 1e-5;    ///< Standard/Slate: gap to max probability.
  double plurality_threshold = 0.30;///< Distributed: plurality fraction.
  double adopt_success = 0.90;      ///< beta — adopt a successful observation.
  double adopt_failure = 0.005;     ///< alpha — adopt a failed observation.
  /// Distributed population = ceil(pop_scale * k^pop_exponent); the
  /// super-linear exponent is the paper's "exponential dependence of the
  /// population size on the scenario size" (§IV-C).
  double pop_scale = 4.0;
  double pop_exponent = 1.3;
  /// Populations above this are declared intractable, reproducing the two
  /// "—" cells of Tables II-IV.
  std::size_t max_population = 1'000'000;
};

/// Outcome of one complete run.
struct MwuResult {
  bool converged = false;
  bool intractable = false;         ///< Distributed only: population too large.
  std::size_t iterations = 0;       ///< completed update cycles.
  std::size_t best_option = 0;      ///< highest-probability / plurality option.
  std::size_t cpus_per_cycle = 0;   ///< agents active per cycle (Table IV).
  /// Total oracle probes: iterations x cpus_per_cycle, because every
  /// cycle probes one option per CPU.
  std::uint64_t evaluations = 0;
  std::vector<double> probabilities;///< final distribution over options.

  /// Table IV's metric.
  [[nodiscard]] std::uint64_t cpu_iterations() const noexcept {
    return static_cast<std::uint64_t>(iterations) * cpus_per_cycle;
  }
};

/// Abstract MWU realization.  Implementations own all algorithm state;
/// sample/update must be called alternately, starting with sample.
class MwuStrategy {
 public:
  virtual ~MwuStrategy() = default;

  /// Resets state to the initial distribution.
  virtual void init() = 0;

  /// Names the options to probe this cycle (size == cpus_per_cycle()).
  ///
  /// The vector belongs to the strategy: each variant refills one member
  /// buffer per call, so a cycle allocates nothing once the buffer has
  /// reached its size.  The reference (and the buffer's data) stays valid
  /// until the next sample() or init() on this strategy; a caller that
  /// keeps the probes longer copies them (`const auto probes = ...`).
  [[nodiscard]] virtual const std::vector<std::size_t>& sample(
      util::RngStream& rng) = 0;

  /// Folds this cycle's binary rewards back in.  `options` must be the
  /// vector returned by the immediately-preceding sample() (update() may be
  /// handed that very buffer).
  virtual void update(std::span<const std::size_t> options,
                      std::span<const double> rewards,
                      util::RngStream& rng) = 0;

  /// Current probability the algorithm assigns to each option.
  [[nodiscard]] virtual std::vector<double> probabilities() const = 0;

  /// Whether the convergence criterion holds for the current state.
  [[nodiscard]] virtual bool converged() const = 0;

  /// The option the algorithm currently prefers.
  [[nodiscard]] virtual std::size_t best_option() const = 0;

  /// Agents (CPUs) active in each cycle.
  [[nodiscard]] virtual std::size_t cpus_per_cycle() const = 0;

  [[nodiscard]] virtual MwuKind kind() const = 0;

  /// The learned state as a flat double vector, in the variant's own
  /// layout (weights for the global-memory variants, the choice vector for
  /// Distributed).  RepairSession::save and restore call this pair: it is
  /// the checkpoint seam.
  [[nodiscard]] virtual std::vector<double> export_state() const = 0;

  /// Restores a vector captured by export_state() from a strategy of the
  /// same kind and shape.  Throws std::invalid_argument on a vector that
  /// does not fit; a refused import leaves the state as it was.
  virtual void import_state(std::span<const double> state) = 0;
};

/// Checks a weight vector before it replaces a strategy's weights (a
/// checkpoint restore): `options` entries, none negative, NaN or infinite,
/// and a positive total.  Returns that total, folded left to right.  Throws
/// std::invalid_argument naming the first rule the vector breaks.
double validate_weights(std::span<const double> weights, std::size_t options);

/// Instantiates one of the three realizations for the given configuration.
/// Throws std::invalid_argument on inconsistent configuration (k == 0,
/// eta > 1/2, exploration outside [0,1], alpha > beta).
[[nodiscard]] std::unique_ptr<MwuStrategy> make_mwu(MwuKind kind,
                                                    const MwuConfig& config);

/// Per-cycle hook for run_mwu: called once per completed cycle with the
/// cycle's probes and rewards, after update() and before the convergence
/// test, so `strategy` already holds the post-update state.  It sees the
/// strategy as const and never the run's stream, so it cannot change the
/// trajectory.
using CycleObserver =
    std::function<void(std::span<const std::size_t> probes,
                       std::span<const double> rewards,
                       const MwuStrategy& strategy)>;

/// Runs a strategy against an oracle to convergence or the iteration cap.
/// This is the loop the evaluation harness (Tables II-IV) executes.
[[nodiscard]] MwuResult run_mwu(MwuStrategy& strategy, const CostOracle& oracle,
                                const MwuConfig& config, util::RngStream rng,
                                const CycleObserver& on_cycle = {});

/// Convenience: construct + run, handling the Distributed intractability
/// case (population over config.max_population) by returning an
/// `intractable` result without executing (`on_cycle` never fires).
[[nodiscard]] MwuResult run_mwu(MwuKind kind, const CostOracle& oracle,
                                const MwuConfig& config, util::RngStream rng,
                                const CycleObserver& on_cycle = {});

/// The Distributed population size for a given configuration.
[[nodiscard]] std::size_t distributed_population(const MwuConfig& config);

}  // namespace mwr::core
