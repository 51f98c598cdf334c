// Integration tests for core/parallel_driver: the MWU algorithms executed
// for real over the message-passing substrate, with congestion patterns
// checked against Table I's communication column.
#include <gtest/gtest.h>

#include "core/parallel_driver.hpp"
#include "datasets/distributions.hpp"

namespace mwr::core {
namespace {

TEST(StandardSpmd, ConvergesOnEasyInstance) {
  OptionSet options("easy", {0.05, 0.05, 0.95, 0.05});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 4;
  config.num_agents = 8;
  config.max_iterations = 400;
  const auto run = run_standard_spmd(oracle, config, 42);
  EXPECT_TRUE(run.result.converged);
  EXPECT_EQ(run.result.best_option, 2u);
  EXPECT_EQ(run.result.cpus_per_cycle, 8u);
  EXPECT_GT(run.result.evaluations, 0u);
}

TEST(StandardSpmd, CongestionIsOrderN) {
  OptionSet options("easy", {0.1, 0.9});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 2;
  config.num_agents = 12;
  config.max_iterations = 20;
  const auto run = run_standard_spmd(oracle, config, 7);
  // The allreduce gathers n-1 contributions at rank 0 every cycle and
  // broadcasts n-1 replies, so the per-cycle maximum is exactly n-1.
  EXPECT_DOUBLE_EQ(run.max_congestion_per_cycle.mean(),
                   static_cast<double>(config.num_agents - 1));
}

TEST(StandardSpmd, ReplicasStayDeterministic) {
  OptionSet options("easy", {0.2, 0.8, 0.3});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 3;
  config.num_agents = 4;
  config.max_iterations = 50;
  const auto a = run_standard_spmd(oracle, config, 11);
  const auto b = run_standard_spmd(oracle, config, 11);
  EXPECT_EQ(a.result.iterations, b.result.iterations);
  EXPECT_EQ(a.result.best_option, b.result.best_option);
  EXPECT_EQ(a.result.probabilities, b.result.probabilities);
}

TEST(DistributedSpmd, ConvergesOnEasyInstance) {
  OptionSet options("easy", {0.05, 0.95, 0.05, 0.05});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 4;
  config.max_iterations = 300;
  const auto run =
      run_distributed_spmd(oracle, config, 13, /*population=*/24);
  EXPECT_TRUE(run.result.converged);
  EXPECT_EQ(run.result.best_option, 1u);
  EXPECT_EQ(run.result.cpus_per_cycle, 24u);
}

TEST(DistributedSpmd, CongestionStaysNearBallsIntoBinsBound) {
  OptionSet options("flat", std::vector<double>(8, 0.5));
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 8;
  config.max_iterations = 30;
  config.plurality_threshold = 1.1;  // never converge: measure 30 cycles
  constexpr std::size_t kPopulation = 48;
  const auto run =
      run_distributed_spmd(oracle, config, 17, kPopulation);
  EXPECT_EQ(run.result.iterations, 30u);
  // Mean max-congestion per cycle is within a small constant of
  // ln n / ln ln n, and far below the O(n) worst case.
  const double bound = parallel::balls_into_bins_bound(kPopulation);
  EXPECT_LT(run.max_congestion_per_cycle.mean(), 3.0 * bound);
  EXPECT_LT(run.max_congestion_per_cycle.max(),
            static_cast<double>(kPopulation) / 2.0);
  EXPECT_GT(run.max_congestion_per_cycle.mean(), 1.0);
}

// The superstep engine must reproduce the thread-per-rank trajectory bit
// for bit: every recv is (source, tag)-filtered over non-overtaking
// channels and all randomness is per-rank, so no legal schedule — at any
// worker count — can change what a rank observes.
void expect_same_run(const ParallelMwuResult& a, const ParallelMwuResult& b,
                     const char* label) {
  EXPECT_EQ(a.result.iterations, b.result.iterations) << label;
  EXPECT_EQ(a.result.converged, b.result.converged) << label;
  EXPECT_EQ(a.result.best_option, b.result.best_option) << label;
  EXPECT_EQ(a.result.probabilities, b.result.probabilities) << label;
  EXPECT_EQ(a.result.evaluations, b.result.evaluations) << label;
  EXPECT_EQ(a.total_messages, b.total_messages) << label;
  EXPECT_EQ(a.max_congestion_per_cycle.count(),
            b.max_congestion_per_cycle.count())
      << label;
  EXPECT_EQ(a.max_congestion_per_cycle.mean(),
            b.max_congestion_per_cycle.mean())
      << label;
  EXPECT_EQ(a.max_congestion_per_cycle.max(), b.max_congestion_per_cycle.max())
      << label;
}

TEST(StandardSpmd, SuperstepEngineIsBitIdenticalToThreadPerRank) {
  OptionSet options("easy", {0.2, 0.8, 0.3});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 3;
  config.num_agents = 8;
  config.max_iterations = 60;
  for (const std::uint64_t seed : {11u, 29u, 47u}) {
    const auto reference = run_standard_spmd(
        oracle, config, seed, parallel::RunPolicy::thread_per_rank());
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const auto engine = run_standard_spmd(
          oracle, config, seed, parallel::RunPolicy::superstep(workers));
      expect_same_run(reference, engine, "standard");
    }
  }

  // k = 16 overflows PayloadVec's inline buffer, so the allreduce's gather
  // and reply wave carry heap payloads on every substrate.
  std::vector<double> wide_rates(16, 0.2);
  wide_rates[11] = 0.8;
  OptionSet wide("wide", wide_rates);
  const BernoulliOracle wide_oracle(wide);
  config.num_options = 16;
  for (const std::uint64_t seed : {11u, 29u}) {
    const auto reference = run_standard_spmd(
        wide_oracle, config, seed, parallel::RunPolicy::thread_per_rank());
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const auto engine = run_standard_spmd(
          wide_oracle, config, seed, parallel::RunPolicy::superstep(workers));
      expect_same_run(reference, engine, "standard k=16");
    }
  }
}

TEST(DistributedSpmd, SuperstepEngineIsBitIdenticalToThreadPerRank) {
  OptionSet options("flat", std::vector<double>(6, 0.5));
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 6;
  config.max_iterations = 12;
  config.plurality_threshold = 1.1;  // fixed work on every substrate
  constexpr std::size_t kPopulation = 40;
  for (const std::uint64_t seed : {5u, 23u}) {
    const auto reference =
        run_distributed_spmd(oracle, config, seed, kPopulation,
                             parallel::RunPolicy::thread_per_rank());
    for (const std::size_t workers : {1u, 2u, 4u}) {
      const auto engine =
          run_distributed_spmd(oracle, config, seed, kPopulation,
                               parallel::RunPolicy::superstep(workers));
      expect_same_run(reference, engine, "distributed");
    }
  }
}

TEST(DistributedSpmd, EngineRunsPopulationsBeyondThreadScale) {
  // A population this size would need 2048 OS threads on the historical
  // substrate; the engine runs it on a bounded pool.
  OptionSet options("flat", std::vector<double>(4, 0.5));
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 4;
  config.max_iterations = 2;
  config.plurality_threshold = 1.1;
  const auto run = run_distributed_spmd(oracle, config, 31, 2048,
                                        parallel::RunPolicy::superstep(2));
  EXPECT_EQ(run.result.iterations, 2u);
  EXPECT_EQ(run.result.cpus_per_cycle, 2048u);
  EXPECT_EQ(run.result.evaluations, 2u * 2048u);
}

TEST(DistributedSpmd, FarLessCongestedThanStandardAtSameScale) {
  OptionSet options("easy", {0.3, 0.7});
  const BernoulliOracle oracle(options);
  MwuConfig config;
  config.num_options = 2;
  config.num_agents = 32;
  config.max_iterations = 15;
  config.plurality_threshold = 1.1;
  config.convergence_tol = 0.0;  // keep both running the full 15 cycles
  const auto standard = run_standard_spmd(oracle, config, 19);
  const auto distributed = run_distributed_spmd(oracle, config, 19, 32);
  EXPECT_GT(standard.max_congestion_per_cycle.mean(),
            3.0 * distributed.max_congestion_per_cycle.mean());
}

}  // namespace
}  // namespace mwr::core
