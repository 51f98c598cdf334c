// Unit tests for the checkpoint seam, MwuStrategy::export_state and
// import_state: round-trips for all four strategies, and import_state's
// refusal of state that does not fit the strategy (checkpoints are read
// from untrusted files).
#include <gtest/gtest.h>

#include <limits>

#include "core/distributed_mwu.hpp"
#include "core/mwu.hpp"
#include "core/standard_mwu.hpp"
#include "datasets/distributions.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

// Advance a strategy a few cycles so it carries non-trivial state.
void warm_up(MwuStrategy& strategy, const CostOracle& oracle,
             std::uint64_t seed) {
  util::RngStream rng(seed);
  for (int cycle = 0; cycle < 20; ++cycle) {
    const auto probes = strategy.sample(rng);
    std::vector<double> rewards(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      rewards[j] = oracle.sample(probes[j], rng);
    }
    strategy.update(probes, rewards, rng);
  }
}

class SerializationRoundTrip : public ::testing::TestWithParam<MwuKind> {};

TEST_P(SerializationRoundTrip, RestoresProbabilitiesExactly) {
  const auto options = datasets::make_unimodal(16, 9);
  const BernoulliOracle oracle(options);
  const auto config = config_for(16);

  const auto original = make_mwu(GetParam(), config);
  warm_up(*original, oracle, 11);

  const auto restored = make_mwu(GetParam(), config);
  restored->import_state(original->export_state());

  const auto p_original = original->probabilities();
  const auto p_restored = restored->probabilities();
  ASSERT_EQ(p_original.size(), p_restored.size());
  for (std::size_t i = 0; i < p_original.size(); ++i) {
    EXPECT_NEAR(p_original[i], p_restored[i], 1e-12) << to_string(GetParam());
  }
  EXPECT_EQ(original->best_option(), restored->best_option());
  EXPECT_EQ(original->converged(), restored->converged());
}

TEST_P(SerializationRoundTrip, RestoredStrategyContinuesIdentically) {
  const auto options = datasets::make_unimodal(16, 10);
  const BernoulliOracle oracle(options);
  const auto config = config_for(16);

  const auto a = make_mwu(GetParam(), config);
  warm_up(*a, oracle, 21);
  const auto b = make_mwu(GetParam(), config);
  b->import_state(a->export_state());

  // Same subsequent inputs => identical trajectories.
  util::RngStream rng_a(31);
  util::RngStream rng_b(31);
  for (int cycle = 0; cycle < 10; ++cycle) {
    const auto probes_a = a->sample(rng_a);
    const auto probes_b = b->sample(rng_b);
    EXPECT_EQ(probes_a, probes_b);
    std::vector<double> rewards(probes_a.size(), 1.0);
    a->update(probes_a, rewards, rng_a);
    b->update(probes_b, rewards, rng_b);
  }
  EXPECT_EQ(a->probabilities(), b->probabilities());
}

INSTANTIATE_TEST_SUITE_P(Kinds, SerializationRoundTrip,
                         ::testing::Values(MwuKind::kStandard, MwuKind::kSlate,
                                           MwuKind::kDistributed,
                                           MwuKind::kExp3),
                         [](const auto& info) { return to_string(info.param); });

// The flat vector carries no kind tag (the campaign checkpoint's
// fingerprint pins the kind), so only kinds whose state shapes differ are
// told apart here: a Distributed choice vector is the population's width,
// and learned weights are not option indices.
TEST(Serialization, RejectsKindMismatch) {
  const auto options = datasets::make_unimodal(4, 8);
  const BernoulliOracle oracle(options);
  const auto standard = make_mwu(MwuKind::kStandard, config_for(4));
  warm_up(*standard, oracle, 5);
  const auto distributed = make_mwu(MwuKind::kDistributed, config_for(4));
  EXPECT_THROW(distributed->import_state(standard->export_state()),
               std::invalid_argument);
  EXPECT_THROW(standard->import_state(distributed->export_state()),
               std::invalid_argument);
}

TEST(Serialization, RejectsOptionCountMismatch) {
  for (const MwuKind kind : {MwuKind::kStandard, MwuKind::kDistributed}) {
    const auto a = make_mwu(kind, config_for(4));
    const auto b = make_mwu(kind, config_for(8));
    EXPECT_THROW(b->import_state(a->export_state()), std::invalid_argument)
        << to_string(kind);
  }
}

// A Distributed choice is cast to uint32_t: every value that is not an
// option index must be refused before that cast (NaN and out-of-range
// casts are undefined behaviour).
TEST(Serialization, RejectsDistributedChoicesThatAreNotOptionIndices) {
  DistributedMwu mwu(config_for(4));
  const std::vector<double> valid(mwu.population(), 3.0);
  mwu.import_state(valid);
  EXPECT_EQ(mwu.choices(), std::vector<std::uint32_t>(mwu.population(), 3));

  for (const double bad : {std::numeric_limits<double>::quiet_NaN(), -1.0,
                           0.5, 1e300, 4.0}) {
    std::vector<double> state = valid;
    state.back() = bad;
    EXPECT_THROW(mwu.import_state(state), std::invalid_argument) << bad;
  }
  // A refused import leaves the strategy as it was.
  EXPECT_EQ(mwu.choices(), std::vector<std::uint32_t>(mwu.population(), 3));
}

TEST(Serialization, RejectsNonFiniteWeights) {
  for (const MwuKind kind : {MwuKind::kStandard, MwuKind::kSlate,
                             MwuKind::kExp3}) {
    const auto mwu = make_mwu(kind, config_for(3));
    for (const double bad : {std::numeric_limits<double>::infinity(),
                             std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(mwu->import_state(std::vector<double>{1.0, bad, 1.0}),
                   std::invalid_argument)
          << to_string(kind) << " " << bad;
    }
  }
}

TEST(Serialization, SetWeightsValidates) {
  StandardMwu mwu(config_for(3));
  EXPECT_THROW(mwu.set_weights({1.0}), std::invalid_argument);
  EXPECT_THROW(mwu.set_weights({1.0, -1.0, 1.0}), std::invalid_argument);
  EXPECT_THROW(mwu.set_weights({0.0, 0.0, 0.0}), std::invalid_argument);
  mwu.set_weights({0.5, 1.0, 0.5});
  EXPECT_DOUBLE_EQ(mwu.probabilities()[1], 0.5);
}

TEST(Serialization, SetChoicesValidates) {
  DistributedMwu mwu(config_for(4));
  std::vector<std::uint32_t> wrong_size(3, 0);
  EXPECT_THROW(mwu.set_choices(wrong_size), std::invalid_argument);
  std::vector<std::uint32_t> out_of_range(mwu.population(), 9);
  EXPECT_THROW(mwu.set_choices(out_of_range), std::invalid_argument);
  std::vector<std::uint32_t> valid(mwu.population(), 2);
  mwu.set_choices(valid);
  EXPECT_DOUBLE_EQ(mwu.probabilities()[2], 1.0);
}

}  // namespace
}  // namespace mwr::core
