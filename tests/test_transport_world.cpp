// Cross-backend trajectory bit-identity: run_distributed_spmd_multiprocess
// over the socketpair fabric must reproduce the in-process Distributed
// MWU run exactly — same convergence cycle, same winner, same per-rank
// final choices (trajectory_hash), same tracked-message count, and the
// same per-cycle congestion maxima.  The per-rank program is seeded RNG +
// (source, tag)-filtered non-overtaking channels, so the fabric carrying
// the bytes must be unobservable to the trajectory.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>

#include "core/option_set.hpp"
#include "core/parallel_driver.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t options) {
  MwuConfig config;
  config.num_options = options;
  config.max_iterations = 40;
  config.plurality_threshold = 0.70;
  return config;
}

OptionSet bimodal_options(std::size_t k) {
  std::vector<double> values(k, 0.40);
  values[k / 3] = 0.62;
  return OptionSet("transport-world", values);
}

// Runs `options` in process and across three processes (uneven blocks
// whenever population % 3 != 0) and pins every trajectory statistic equal.
void expect_multiprocess_matches_in_process(const OptionSet& options,
                                            std::size_t population) {
  const BernoulliOracle oracle(options);
  const auto config = config_for(options.size());
  constexpr std::uint64_t kSeed = 2026;

  const ParallelMwuResult reference =
      run_distributed_spmd(oracle, config, kSeed, population);

  MultiprocessOptions mp;
  mp.processes = 3;
  const ParallelMwuResult mirrored = run_distributed_spmd_multiprocess(
      oracle, config, kSeed, population, mp);

  EXPECT_EQ(mirrored.result.iterations, reference.result.iterations);
  EXPECT_EQ(mirrored.result.converged, reference.result.converged);
  EXPECT_EQ(mirrored.result.best_option, reference.result.best_option);
  EXPECT_EQ(mirrored.result.evaluations, reference.result.evaluations);
  EXPECT_EQ(mirrored.total_messages, reference.total_messages);
  // The bit-identity pin: every rank ended on the same choice.
  EXPECT_EQ(mirrored.trajectory_hash, reference.trajectory_hash);
  // Congestion is a pure function of the trajectory, so the per-cycle
  // maxima must agree moment for moment.
  EXPECT_EQ(mirrored.max_congestion_per_cycle.count(),
            reference.max_congestion_per_cycle.count());
  EXPECT_DOUBLE_EQ(mirrored.max_congestion_per_cycle.mean(),
                   reference.max_congestion_per_cycle.mean());
  EXPECT_DOUBLE_EQ(mirrored.max_congestion_per_cycle.max(),
                   reference.max_congestion_per_cycle.max());
  ASSERT_EQ(mirrored.result.probabilities.size(),
            reference.result.probabilities.size());
  for (std::size_t i = 0; i < reference.result.probabilities.size(); ++i) {
    EXPECT_DOUBLE_EQ(mirrored.result.probabilities[i],
                     reference.result.probabilities[i])
        << i;
  }
}

class CrossBackendIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(CrossBackendIdentity, MultiprocessTrajectoryMatchesInProcess) {
  expect_multiprocess_matches_in_process(bimodal_options(6), GetParam());
}

INSTANTIATE_TEST_SUITE_P(FabricsAndPopulations, CrossBackendIdentity,
                         ::testing::Values(std::size_t{1} << 4,
                                           std::size_t{1} << 6,
                                           std::size_t{1} << 8),
                         [](const auto& info) {
                           return "uds_pop" + std::to_string(info.param);
                         });

// Paper Table II's largest datasets have k = 256 options: each worker's
// report (ten statistics plus k popularity fractions) comes back whole as
// one frame on its result stream, whatever k is.
TEST(CrossBackendIdentity, TableTwoWidthOptionSetMatchesInProcess) {
  expect_multiprocess_matches_in_process(bimodal_options(256), 64);
}

// Probabilities reported by the multiprocess run are the rank-0 snapshot
// of the identical replicated popularity vector.
TEST(CrossBackendIdentity, ProbabilitiesMatchInProcess) {
  const auto options = bimodal_options(6);
  const BernoulliOracle oracle(options);
  const auto config = config_for(options.size());

  const auto reference = run_distributed_spmd(oracle, config, 5, 48);
  MultiprocessOptions mp;
  const auto mirrored =
      run_distributed_spmd_multiprocess(oracle, config, 5, 48, mp);

  ASSERT_EQ(mirrored.result.probabilities.size(),
            reference.result.probabilities.size());
  for (std::size_t i = 0; i < reference.result.probabilities.size(); ++i) {
    EXPECT_DOUBLE_EQ(mirrored.result.probabilities[i],
                     reference.result.probabilities[i])
        << i;
  }
}

}  // namespace
}  // namespace mwr::core
