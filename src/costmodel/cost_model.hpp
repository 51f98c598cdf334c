// The weighted asymptotic cost model of §IV-E and its concrete
// recommendations (§IV-E.2).
//
// Asymptotics alone hide the trade-offs practitioners face: Distributed
// minimizes communication but demands a super-linear CPU count; Slate looks
// hopeless by iteration count but competitive by CPU-iterations; Standard
// is cheapest in update cycles but pays O(n) congestion every cycle.  The
// paper's decision model attaches a weight to each feature:
//
//   cost(alg) = w_comm * communication(alg)
//             + w_conv * convergence(alg)
//             + w_cpu  * min_agents(alg)
//             + w_mem  * memory(alg)
//
// and recommends the minimizer.  The headline finding — for APR, where
// probes are expensive and messages tiny (w_comm << w_conv), the
// global-memory, high-communication Standard wins — falls out of this model.
#pragma once

#include <vector>

#include "costmodel/asymptotics.hpp"

namespace mwr::costmodel {

/// Relative importance of each feature (the alpha/beta of §IV-E.1,
/// extended with the CPU and memory terms the section discusses).
struct FeatureWeights {
  double communication = 1.0;
  double convergence = 1.0;
  double cpus = 0.0;
  double memory = 0.0;
};

/// One algorithm's modeled cost with its per-feature breakdown.
struct ModeledCost {
  core::MwuKind kind = core::MwuKind::kStandard;
  double communication = 0.0;
  double convergence = 0.0;
  double cpus = 0.0;
  double memory = 0.0;
  double total = 0.0;
};

/// Evaluates the model for one algorithm at an operating point.
[[nodiscard]] ModeledCost modeled_cost(core::MwuKind kind,
                                       const FeatureWeights& weights,
                                       const OperatingPoint& point);

/// Costs for all three algorithms, sorted ascending by total.
[[nodiscard]] std::vector<ModeledCost> rank_algorithms(
    const FeatureWeights& weights, const OperatingPoint& point);

/// The recommended (minimum-cost) algorithm.
[[nodiscard]] core::MwuKind recommend(const FeatureWeights& weights,
                                      const OperatingPoint& point);

/// Sweeps the communication-to-convergence weight ratio and reports, for
/// each ratio, which algorithm the model prefers — the §IV-E crossover
/// analysis.  Ratios are w_comm / w_conv with w_conv fixed at 1.
struct CrossoverRow {
  double comm_weight_ratio = 0.0;
  core::MwuKind preferred = core::MwuKind::kStandard;
  double standard_cost = 0.0;
  double distributed_cost = 0.0;
  double slate_cost = 0.0;
};

[[nodiscard]] std::vector<CrossoverRow> crossover_sweep(
    const OperatingPoint& point, const std::vector<double>& ratios,
    double cpu_weight = 0.0);

// ---------------------------------------------------------------------------
// Empirically-grounded model (§IV-E: "combine the asymptotic analysis ...
// with our empirical observations").  The pure asymptotics, evaluated with
// unit constants, always favor Distributed when communication carries any
// weight — the paper concedes as much in §IV-E.1.  The real-world flip to
// Standard comes from the measured cycle counts and per-cycle CPU usage
// (Tables II and IV): when each evaluation is expensive, total cost is
// dominated by cycles * CPUs, where Distributed's super-linear population
// loses.

/// One algorithm's measured behavior on a dataset (from the evaluation
/// harness or from Tables II/IV directly).
struct EmpiricalObservation {
  core::MwuKind kind = core::MwuKind::kStandard;
  double cycles = 0.0;          ///< update cycles to convergence.
  double cpus_per_cycle = 0.0;  ///< agents active each cycle.
};

/// Weights for the empirical model.  Each term is per-run total:
///   communication — per-cycle congestion of the heaviest node x cycles
///                   (Standard/Slate synchronize all their agents; a
///                   Distributed agent serves ~ln n/ln ln n requests);
///   latency       — update cycles (each cycle is one synchronized round);
///   evaluations   — cycles x CPUs = total option evaluations, the term
///                   that dominates when probes are expensive (APR).
struct EmpiricalWeights {
  double communication = 0.0;
  double latency = 1.0;
  double evaluations = 0.0;
};

/// Total modeled cost of one observed algorithm run.
[[nodiscard]] double empirical_cost(const EmpiricalObservation& observation,
                                    const EmpiricalWeights& weights);

/// The minimum-cost algorithm among the observations.
[[nodiscard]] core::MwuKind recommend_empirical(
    const std::vector<EmpiricalObservation>& observations,
    const EmpiricalWeights& weights);

}  // namespace mwr::costmodel
