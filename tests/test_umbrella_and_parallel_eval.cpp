// Cross-cutting tests: the umbrella header compiles and exposes the API;
// the evaluation sweep is thread-count invariant; run_mwu's loop consumes
// the master stream exactly as the historical serial loop did.
#include <gtest/gtest.h>

#include "mwrepair.hpp"

namespace mwr {
namespace {

TEST(UmbrellaHeader, ExposesTheWholeApi) {
  // Smoke: one symbol from each major module, through the single include.
  const auto options = datasets::make_unimodal(8, 1);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = 8;
  const auto result =
      core::run_mwu(core::MwuKind::kStandard, oracle, config,
                    util::RngStream(1));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(datasets::c_scenarios().size(), 5u);
  EXPECT_EQ(costmodel::symbolic(core::MwuKind::kStandard,
                                costmodel::Property::kMemory),
            "O(k)");
}

TEST(ParallelEvaluation, ThreadCountDoesNotChangeTheCells) {
  costmodel::EvalConfig config;
  config.seeds = 2;
  config.max_size = 64;
  config.max_iterations = 1500;
  config.master_seed = 5;
  config.threads = 1;
  const auto serial = costmodel::run_evaluation(config);
  config.threads = 4;
  const auto parallel_cells = costmodel::run_evaluation(config);
  ASSERT_EQ(serial.size(), parallel_cells.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].dataset, parallel_cells[i].dataset);
    EXPECT_EQ(serial[i].kind, parallel_cells[i].kind);
    EXPECT_EQ(serial[i].iterations.mean(), parallel_cells[i].iterations.mean());
    EXPECT_EQ(serial[i].accuracy.mean(), parallel_cells[i].accuracy.mean());
    EXPECT_EQ(serial[i].converged_runs, parallel_cells[i].converged_runs);
  }
}

TEST(ParallelEvaluation, SerialPathIsTheHistoricalTrajectory) {
  // run_mwu must consume the master stream exactly as the pre-batching
  // serial loop did (no split() calls), so seeded runs reproduce
  // historical results bit-for-bit.
  const auto options = datasets::make_unimodal(32, 3);
  const core::BernoulliOracle oracle(options);
  core::MwuConfig config;
  config.num_options = 32;
  config.num_agents = 8;
  config.max_iterations = 2000;

  // Reference: hand-rolled serial loop against the same strategy.
  const auto strategy = core::make_mwu(core::MwuKind::kStandard, config);
  util::RngStream rng(17);
  std::size_t iterations = 0;
  bool converged = false;
  std::vector<double> rewards;
  for (std::size_t t = 0; t < config.max_iterations; ++t) {
    const auto probes = strategy->sample(rng);
    rewards.resize(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      rewards[j] = oracle.sample(probes[j], rng);
    }
    strategy->update(probes, rewards, rng);
    ++iterations;
    if (strategy->converged()) {
      converged = true;
      break;
    }
  }

  const auto result = core::run_mwu(core::MwuKind::kStandard, oracle, config,
                                    util::RngStream(17));
  EXPECT_EQ(result.converged, converged);
  EXPECT_EQ(result.iterations, iterations);
  EXPECT_EQ(result.best_option, strategy->best_option());
}

}  // namespace
}  // namespace mwr
