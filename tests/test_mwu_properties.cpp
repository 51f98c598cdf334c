// Cross-variant property sweeps: invariants every MWU realization must
// hold, checked over (kind x instance-size) grids with stochastic inputs.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/mwu.hpp"
#include "datasets/distributions.hpp"

namespace mwr::core {
namespace {

using Param = std::tuple<MwuKind, std::size_t>;

class MwuInvariants : public ::testing::TestWithParam<Param> {
 protected:
  [[nodiscard]] MwuConfig config() const {
    MwuConfig config;
    config.num_options = std::get<1>(GetParam());
    config.num_agents = 8;
    return config;
  }
  [[nodiscard]] MwuKind kind() const { return std::get<0>(GetParam()); }
};

TEST_P(MwuInvariants, ProbabilitiesStayOnTheSimplexUnderNoise) {
  const auto strategy = make_mwu(kind(), config());
  util::RngStream rng(1);
  for (int cycle = 0; cycle < 60; ++cycle) {
    const auto probes = strategy->sample(rng);
    ASSERT_EQ(probes.size(), strategy->cpus_per_cycle());
    std::vector<double> rewards(probes.size());
    for (auto& r : rewards) r = rng.bernoulli(0.5) ? 1.0 : 0.0;
    strategy->update(probes, rewards, rng);
    const auto p = strategy->probabilities();
    ASSERT_EQ(p.size(), config().num_options);
    double total = 0.0;
    for (const double v : p) {
      EXPECT_GE(v, -1e-12);
      EXPECT_LE(v, 1.0 + 1e-12);
      total += v;
    }
    EXPECT_NEAR(total, 1.0, 1e-6);
  }
}

TEST_P(MwuInvariants, SampledOptionsAreInRange) {
  const auto strategy = make_mwu(kind(), config());
  util::RngStream rng(2);
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (const auto option : strategy->sample(rng)) {
      EXPECT_LT(option, config().num_options);
    }
    // Keep the protocol legal: update with all-zero rewards.
    const auto probes = strategy->sample(rng);
    strategy->update(probes, std::vector<double>(probes.size(), 0.0), rng);
  }
}

TEST_P(MwuInvariants, BestOptionHasMaximalProbability) {
  const auto strategy = make_mwu(kind(), config());
  util::RngStream rng(3);
  for (int cycle = 0; cycle < 40; ++cycle) {
    const auto probes = strategy->sample(rng);
    std::vector<double> rewards(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      rewards[j] = probes[j] % 3 == 0 ? 1.0 : 0.0;
    }
    strategy->update(probes, rewards, rng);
  }
  const auto p = strategy->probabilities();
  const std::size_t best = strategy->best_option();
  for (const double v : p) EXPECT_LE(v, p[best] + 1e-12);
}

TEST_P(MwuInvariants, InitRestoresUniformityAndUnconvergence) {
  const auto strategy = make_mwu(kind(), config());
  util::RngStream rng(4);
  for (int cycle = 0; cycle < 30; ++cycle) {
    const auto probes = strategy->sample(rng);
    std::vector<double> rewards(probes.size(), 1.0);
    strategy->update(probes, rewards, rng);
  }
  strategy->init();
  const auto p = strategy->probabilities();
  const double uniform = 1.0 / static_cast<double>(p.size());
  for (const double v : p) {
    // Distributed's round-robin leaves at most one agent of slack.
    EXPECT_NEAR(v, uniform, 0.3 * uniform + 1e-9);
  }
  EXPECT_FALSE(strategy->converged());
}

TEST_P(MwuInvariants, RunsAreReproducibleAcrossIdenticalSeeds) {
  const auto options = datasets::make_random(config().num_options, 55);
  const BernoulliOracle oracle(options);
  auto run_config = config();
  run_config.max_iterations = 300;
  const auto a = run_mwu(kind(), oracle, run_config, util::RngStream(9));
  const auto b = run_mwu(kind(), oracle, run_config, util::RngStream(9));
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.best_option, b.best_option);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.probabilities, b.probabilities);
}

// sample() hands out a buffer the strategy owns: the same object every
// cycle, whose storage is reused once it has reached its size.
TEST(MwuStrategy, SampleReusesItsBuffer) {
  for (const MwuKind kind : {MwuKind::kStandard, MwuKind::kSlate,
                             MwuKind::kDistributed, MwuKind::kExp3}) {
    SCOPED_TRACE(to_string(kind));
    MwuConfig config;
    config.num_options = 32;
    config.num_agents = 8;
    const auto strategy = make_mwu(kind, config);
    util::RngStream rng(21);
    const std::vector<std::size_t>* buffer = nullptr;
    const std::size_t* data = nullptr;
    std::vector<double> rewards;
    for (int cycle = 0; cycle < 50; ++cycle) {
      const auto& probes = strategy->sample(rng);
      ASSERT_EQ(probes.size(), strategy->cpus_per_cycle());
      if (cycle == 0) {
        buffer = &probes;
        data = probes.data();
      } else {
        EXPECT_EQ(&probes, buffer) << "cycle " << cycle;
        EXPECT_EQ(probes.data(), data) << "cycle " << cycle;
      }
      rewards.resize(probes.size());
      for (auto& r : rewards) r = rng.bernoulli(0.5) ? 1.0 : 0.0;
      strategy->update(probes, rewards, rng);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, MwuInvariants,
    ::testing::Combine(::testing::Values(MwuKind::kStandard, MwuKind::kSlate,
                                         MwuKind::kDistributed,
                                         MwuKind::kExp3),
                       ::testing::Values(std::size_t{8}, std::size_t{32},
                                         std::size_t{100})),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_k" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace mwr::core
