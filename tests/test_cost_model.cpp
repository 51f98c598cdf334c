// Unit tests for costmodel/cost_model: the weighted asymptotic model, the
// crossover sweep, and the empirically-grounded recommendation of §IV-E.
#include <gtest/gtest.h>

#include "costmodel/cost_model.hpp"
#include "datasets/distributions.hpp"

namespace mwr::costmodel {
namespace {

using core::MwuKind;

TEST(ModeledCost, BreakdownSumsToTotal) {
  FeatureWeights weights{.communication = 2.0, .convergence = 3.0,
                         .cpus = 1.0, .memory = 0.5};
  OperatingPoint point;
  const auto cost = modeled_cost(MwuKind::kStandard, weights, point);
  EXPECT_NEAR(cost.total,
              cost.communication + cost.convergence + cost.cpus + cost.memory,
              1e-9);
  EXPECT_EQ(cost.kind, MwuKind::kStandard);
}

TEST(ModeledCost, ZeroWeightsZeroCost) {
  FeatureWeights weights{.communication = 0, .convergence = 0, .cpus = 0,
                         .memory = 0};
  OperatingPoint point;
  EXPECT_DOUBLE_EQ(modeled_cost(MwuKind::kSlate, weights, point).total, 0.0);
}

TEST(RankAlgorithms, SortedAscending) {
  FeatureWeights weights{.communication = 1.0, .convergence = 1.0};
  OperatingPoint point;
  const auto ranked = rank_algorithms(weights, point);
  ASSERT_EQ(ranked.size(), 3u);
  EXPECT_LE(ranked[0].total, ranked[1].total);
  EXPECT_LE(ranked[1].total, ranked[2].total);
}

TEST(Recommend, PureAsymptoticsFavorDistributedOnCommunication) {
  // §IV-E.1: with only comm+conv weighted, the asymptotics favor
  // Distributed — the paper concedes this before adding empirical data.
  FeatureWeights weights{.communication = 1.0, .convergence = 1.0};
  OperatingPoint point;
  point.options = 1000;
  EXPECT_EQ(recommend(weights, point), MwuKind::kDistributed);
}

TEST(Recommend, CpuWeightingFlipsToStandard) {
  // §IV-E.1: "a model in which the number of CPUs used in each iteration is
  // weighted ... will prefer Standard instead."
  FeatureWeights weights{.communication = 1.0, .convergence = 1.0,
                         .cpus = 100.0};
  OperatingPoint point;
  point.options = 100000;  // Distributed's k^(1/delta) explodes
  point.agents = 16;
  EXPECT_EQ(recommend(weights, point), MwuKind::kStandard);
}

TEST(CrossoverSweep, ReportsEveryRatioWithCosts) {
  OperatingPoint point;
  const std::vector<double> ratios = {0.1, 1.0, 10.0};
  const auto rows = crossover_sweep(point, ratios);
  ASSERT_EQ(rows.size(), 3u);
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_DOUBLE_EQ(rows[i].comm_weight_ratio, ratios[i]);
    EXPECT_GT(rows[i].standard_cost, 0.0);
    EXPECT_GT(rows[i].distributed_cost, 0.0);
    EXPECT_GT(rows[i].slate_cost, 0.0);
  }
  // Costs grow monotonically in the communication weight.
  EXPECT_LT(rows[0].standard_cost, rows[2].standard_cost);
}

TEST(EmpiricalCost, UsesCongestionModelPerKind) {
  EmpiricalWeights weights{.communication = 1.0, .latency = 0.0,
                           .evaluations = 0.0};
  // Standard with 64 agents congests 64 per cycle; Distributed with 64
  // agents congests ~ ln n/ln ln n.
  const EmpiricalObservation standard{MwuKind::kStandard, 10.0, 64.0};
  const EmpiricalObservation distributed{MwuKind::kDistributed, 10.0, 64.0};
  EXPECT_GT(empirical_cost(standard, weights),
            10.0 * empirical_cost(distributed, weights) / 10.0);
  EXPECT_DOUBLE_EQ(empirical_cost(standard, weights), 640.0);
}

TEST(EmpiricalCost, EvaluationTermIsCyclesTimesCpus) {
  EmpiricalWeights weights{.communication = 0.0, .latency = 0.0,
                           .evaluations = 2.0};
  const EmpiricalObservation obs{MwuKind::kSlate, 100.0, 50.0};
  EXPECT_DOUBLE_EQ(empirical_cost(obs, weights), 2.0 * 100.0 * 50.0);
}

TEST(RecommendEmpirical, ThePapersHeadlineResult) {
  // Measured-shape observations (units-like, k=1000): Standard converges in
  // ~600 cycles on 64 CPUs; Distributed in ~190 cycles on ~32k CPUs; Slate
  // caps out at 10000 cycles on 50 CPUs.
  const std::vector<EmpiricalObservation> observations = {
      {MwuKind::kStandard, 600.0, 64.0},
      {MwuKind::kDistributed, 190.0, 32000.0},
      {MwuKind::kSlate, 10000.0, 50.0},
  };
  // APR: evaluations dominate -> Standard (the "surprising result").
  EmpiricalWeights apr{.communication = 0.001, .latency = 1.0,
                       .evaluations = 1.0};
  EXPECT_EQ(recommend_empirical(observations, apr), MwuKind::kStandard);
  // Communication-bound deployment -> Distributed.
  EmpiricalWeights network{.communication = 100.0, .latency = 1.0,
                           .evaluations = 0.0001};
  EXPECT_EQ(recommend_empirical(observations, network),
            MwuKind::kDistributed);
}

TEST(RecommendEmpirical, RejectsEmptyObservations) {
  EXPECT_THROW((void)recommend_empirical({}, EmpiricalWeights{}),
               std::invalid_argument);
}

TEST(ObserveVariants, MeasuresThePaperOrderAndCapsAnIntractableCell) {
  const auto options = datasets::make_unimodal(16, 1);
  core::MwuConfig mwu;
  mwu.num_options = options.size();
  mwu.max_iterations = 300;
  const auto runnable = observe_variants(options, mwu, 2, 900);
  ASSERT_EQ(runnable.size(), 3u);
  EXPECT_EQ(runnable[0].kind, MwuKind::kStandard);
  EXPECT_EQ(runnable[1].kind, MwuKind::kDistributed);
  EXPECT_EQ(runnable[2].kind, MwuKind::kSlate);
  const core::BernoulliOracle oracle(options);
  const auto first = core::run_mwu(MwuKind::kStandard, oracle, mwu,
                                   util::RngStream(900));
  const auto second = core::run_mwu(MwuKind::kStandard, oracle, mwu,
                                    util::RngStream(901));
  EXPECT_EQ(runnable[0].cycles,
            (static_cast<double>(first.iterations) +
             static_cast<double>(second.iterations)) / 2.0);
  EXPECT_EQ(runnable[0].cpus_per_cycle,
            static_cast<double>(first.cpus_per_cycle));

  // Too large a population: observed as a run that never converges.
  mwu.max_population = 1;
  const auto capped = observe_variants(options, mwu, 2, 900);
  EXPECT_EQ(capped[1].cycles, 300.0);
  EXPECT_EQ(capped[1].cpus_per_cycle,
            static_cast<double>(core::distributed_population(mwu)));
  EXPECT_EQ(capped[0].cycles, runnable[0].cycles);
}

}  // namespace
}  // namespace mwr::costmodel
