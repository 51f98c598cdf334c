// Regret instrumentation: the lens MWU theory is usually stated through.
//
// The paper notes (§II-C) that "convergence of Standard is presented in
// terms of algorithm iterations, while the convergence of Slate is
// presented in terms of regret", and that translating between the two is
// what makes Table I comparable.  This module provides the regret side:
// run any realization against a *known* option set and record, per update
// cycle, the expected regret its probes incurred —
//   regret_t = sum over this cycle's probes of (v* - v_probe)
// — plus the cumulative curve, so benches can compare the realizations'
// regret growth against the classic O(sqrt(T k ln k)) shape.  The trace is
// a CycleObserver on run_mwu, not a second copy of its loop, so a traced
// run follows exactly the trajectory of an untraced one.
#pragma once

#include <cstdint>
#include <vector>

#include "core/mwu.hpp"

namespace mwr::core {

struct RegretTrace {
  MwuResult result;
  /// Cumulative expected regret after each completed update cycle.
  std::vector<double> cumulative;
  /// The §IV-C convergence signal per cycle: the probability the algorithm
  /// assigns to its current highest-probability option ("the probability
  /// of the highest weight option at each time step").
  std::vector<double> max_probability;
  /// Probes issued per cycle (cpus_per_cycle; recorded for normalization).
  std::size_t probes_per_cycle = 0;

  /// Final cumulative regret (0 for an empty trace).
  [[nodiscard]] double total() const noexcept {
    return cumulative.empty() ? 0.0 : cumulative.back();
  }
  /// Cumulative regret after `cycle` cycles (clamped to the trace length).
  [[nodiscard]] double at_cycle(std::size_t cycle) const noexcept;
};

/// Runs the realization through run_mwu with a BernoulliOracle over
/// `options`, charging each probe its expected regret against the best
/// option in hindsight.  An intractable Distributed run returns an empty
/// trace whose result is run_mwu's `intractable` one.
[[nodiscard]] RegretTrace run_mwu_with_regret(MwuKind kind,
                                              const OptionSet& options,
                                              const MwuConfig& config,
                                              util::RngStream rng);

/// The reference adversarial-regret envelope c * sqrt(t * k * ln k),
/// evaluated per probe count t (used by bench_regret for comparison).
[[nodiscard]] double adversarial_regret_bound(double probes,
                                              std::size_t num_options,
                                              double constant = 2.0);

}  // namespace mwr::core
