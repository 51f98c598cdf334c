#include "costmodel/cost_model.hpp"

#include <algorithm>
#include <stdexcept>

#include "costmodel/evaluation.hpp"
#include "parallel/congestion.hpp"

namespace mwr::costmodel {

namespace {
constexpr core::MwuKind kAllKinds[] = {core::MwuKind::kStandard,
                                       core::MwuKind::kSlate,
                                       core::MwuKind::kDistributed};
}

ModeledCost modeled_cost(core::MwuKind kind, const FeatureWeights& weights,
                         const OperatingPoint& point) {
  ModeledCost cost;
  cost.kind = kind;
  cost.communication =
      weights.communication * evaluate(kind, Property::kCommunication, point);
  cost.convergence =
      weights.convergence * evaluate(kind, Property::kConvergence, point);
  cost.cpus = weights.cpus * evaluate(kind, Property::kMinAgents, point);
  cost.memory = weights.memory * evaluate(kind, Property::kMemory, point);
  cost.total = cost.communication + cost.convergence + cost.cpus + cost.memory;
  return cost;
}

std::vector<ModeledCost> rank_algorithms(const FeatureWeights& weights,
                                         const OperatingPoint& point) {
  std::vector<ModeledCost> costs;
  for (const auto kind : kAllKinds) {
    costs.push_back(modeled_cost(kind, weights, point));
  }
  std::sort(costs.begin(), costs.end(),
            [](const ModeledCost& a, const ModeledCost& b) {
              return a.total < b.total;
            });
  return costs;
}

core::MwuKind recommend(const FeatureWeights& weights,
                        const OperatingPoint& point) {
  return rank_algorithms(weights, point).front().kind;
}

std::vector<CrossoverRow> crossover_sweep(const OperatingPoint& point,
                                          const std::vector<double>& ratios,
                                          double cpu_weight) {
  std::vector<CrossoverRow> rows;
  rows.reserve(ratios.size());
  for (const double ratio : ratios) {
    FeatureWeights weights;
    weights.communication = ratio;
    weights.convergence = 1.0;
    weights.cpus = cpu_weight;
    CrossoverRow row;
    row.comm_weight_ratio = ratio;
    row.preferred = recommend(weights, point);
    row.standard_cost =
        modeled_cost(core::MwuKind::kStandard, weights, point).total;
    row.distributed_cost =
        modeled_cost(core::MwuKind::kDistributed, weights, point).total;
    row.slate_cost = modeled_cost(core::MwuKind::kSlate, weights, point).total;
    rows.push_back(row);
  }
  return rows;
}

std::vector<EmpiricalObservation> observe_variants(
    const core::OptionSet& options, const core::MwuConfig& mwu,
    std::size_t seeds, std::uint64_t first_seed) {
  std::vector<SweepCell> plan;
  for (const auto kind : {core::MwuKind::kStandard, core::MwuKind::kDistributed,
                          core::MwuKind::kSlate})
    plan.push_back({&options, kind, mwu});
  const auto cells = run_sweep(
      plan, seeds,
      [first_seed](const SweepCell&, std::size_t s) { return first_seed + s; },
      /*threads=*/1);
  std::vector<EmpiricalObservation> observations;
  for (const EvalCell& cell : cells) {
    if (cell.intractable) {
      observations.push_back(
          {cell.kind, static_cast<double>(mwu.max_iterations),
           static_cast<double>(core::distributed_population(mwu))});
    } else {
      observations.push_back({cell.kind, cell.iterations.mean(),
                              static_cast<double>(cell.cpus_per_cycle)});
    }
  }
  return observations;
}

double empirical_cost(const EmpiricalObservation& observation,
                      const EmpiricalWeights& weights) {
  const double congestion_per_cycle =
      observation.kind == core::MwuKind::kDistributed
          ? parallel::balls_into_bins_bound(
                static_cast<std::size_t>(observation.cpus_per_cycle))
          : observation.cpus_per_cycle;
  return weights.communication * congestion_per_cycle * observation.cycles +
         weights.latency * observation.cycles +
         weights.evaluations * observation.cycles * observation.cpus_per_cycle;
}

core::MwuKind recommend_empirical(
    const std::vector<EmpiricalObservation>& observations,
    const EmpiricalWeights& weights) {
  if (observations.empty())
    throw std::invalid_argument("recommend_empirical: no observations");
  const EmpiricalObservation* best = &observations.front();
  double best_cost = empirical_cost(*best, weights);
  for (const auto& observation : observations) {
    const double cost = empirical_cost(observation, weights);
    if (cost < best_cost) {
      best_cost = cost;
      best = &observation;
    }
  }
  return best->kind;
}

}  // namespace mwr::costmodel
