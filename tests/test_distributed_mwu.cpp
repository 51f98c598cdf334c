// Unit tests for core/distributed_mwu: population sizing, the adopt rules
// (alpha/beta/mu), the implicit weight vector, and plurality convergence.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "core/distributed_mwu.hpp"

namespace mwr::core {
namespace {

MwuConfig config_for(std::size_t k) {
  MwuConfig config;
  config.num_options = k;
  return config;
}

TEST(DistributedPopulation, GrowsSuperLinearly) {
  const auto pop = [](std::size_t k) {
    return distributed_population(config_for(k));
  };
  EXPECT_GT(pop(256), 4 * pop(64));  // exponent 1.3 > 1
  EXPECT_GE(pop(4), 4u);             // never below k
}

TEST(DistributedPopulation, IntractableAtPaperSizes) {
  // The paper's two "—" cells: size 16384 exceeds any tractable population.
  EXPECT_GT(distributed_population(config_for(16384)),
            config_for(16384).max_population);
  EXPECT_LE(distributed_population(config_for(4096)),
            config_for(4096).max_population);
}

TEST(DistributedMwu, RejectsBadConfiguration) {
  EXPECT_THROW(DistributedMwu(config_for(0)), std::invalid_argument);
  auto bad = config_for(8);
  bad.exploration = 1.5;
  EXPECT_THROW(DistributedMwu{bad}, std::invalid_argument);
  bad = config_for(8);
  bad.adopt_failure = 0.9;  // alpha > beta
  bad.adopt_success = 0.5;
  EXPECT_THROW(DistributedMwu{bad}, std::invalid_argument);
  bad = config_for(16384);
  EXPECT_THROW(DistributedMwu{bad}, std::length_error);
}

TEST(DistributedMwu, InitializationIsRoundRobin) {
  DistributedMwu mwu(config_for(8));
  const auto p = mwu.probabilities();
  ASSERT_EQ(p.size(), 8u);
  for (const double v : p) EXPECT_NEAR(v, 0.125, 0.01);
  for (std::size_t j = 0; j < mwu.choices().size(); ++j) {
    EXPECT_EQ(mwu.choices()[j], j % 8);
  }
}

TEST(DistributedMwu, CpusPerCycleIsThePopulation) {
  DistributedMwu mwu(config_for(16));
  EXPECT_EQ(mwu.cpus_per_cycle(), mwu.population());
  EXPECT_EQ(mwu.population(), distributed_population(config_for(16)));
}

TEST(DistributedMwu, SampleObservesPopulationOrRandom) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(1);
  const auto observed = mwu.sample(rng);
  EXPECT_EQ(observed.size(), mwu.population());
  for (const auto o : observed) EXPECT_LT(o, 8u);
}

TEST(DistributedMwu, SuccessfulObservationsAreAdopted) {
  auto config = config_for(4);
  config.adopt_success = 1.0;  // always adopt successes
  config.adopt_failure = 0.0;  // never adopt failures
  DistributedMwu mwu(config);
  util::RngStream rng(2);
  // Everyone observes option 2 and it always succeeds.
  const std::vector<std::size_t> observed(mwu.population(), 2);
  const std::vector<double> rewards(mwu.population(), 1.0);
  mwu.update(observed, rewards, rng);
  EXPECT_DOUBLE_EQ(mwu.probabilities()[2], 1.0);
  EXPECT_TRUE(mwu.converged());
  EXPECT_EQ(mwu.best_option(), 2u);
}

TEST(DistributedMwu, FailedObservationsAreRarelyAdopted) {
  auto config = config_for(4);
  config.adopt_failure = 0.0;
  DistributedMwu mwu(config);
  util::RngStream rng(3);
  const std::vector<std::size_t> observed(mwu.population(), 2);
  const std::vector<double> rewards(mwu.population(), 0.0);  // all fail
  const auto before = mwu.probabilities();
  mwu.update(observed, rewards, rng);
  EXPECT_EQ(mwu.probabilities(), before);
}

TEST(DistributedMwu, UpdateRejectsSizeMismatch) {
  DistributedMwu mwu(config_for(4));
  util::RngStream rng(4);
  EXPECT_THROW(mwu.update(std::vector<std::size_t>{1},
                          std::vector<double>{1.0}, rng),
               std::invalid_argument);
}

TEST(DistributedMwu, PopularityIsConsistentWithChoices) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(5);
  for (int cycle = 0; cycle < 50; ++cycle) {
    const auto observed = mwu.sample(rng);
    std::vector<double> rewards(observed.size());
    for (auto& r : rewards) r = rng.bernoulli(0.5) ? 1.0 : 0.0;
    mwu.update(observed, rewards, rng);
  }
  std::vector<std::size_t> counts(8, 0);
  for (const auto c : mwu.choices()) ++counts[c];
  const auto p = mwu.probabilities();
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(p[i],
                static_cast<double>(counts[i]) /
                    static_cast<double>(mwu.population()),
                1e-12);
  }
  EXPECT_NEAR(std::accumulate(p.begin(), p.end(), 0.0), 1.0, 1e-9);
}

TEST(DistributedMwu, ConvergesToPluralityOnDominantOption) {
  DistributedMwu mwu(config_for(8));
  util::RngStream rng(6);
  OptionSet options("easy", {0.1, 0.1, 0.1, 0.1, 0.1, 0.95, 0.1, 0.1});
  BernoulliOracle oracle(options);
  bool converged = false;
  for (int cycle = 0; cycle < 500 && !converged; ++cycle) {
    const auto observed = mwu.sample(rng);
    std::vector<double> rewards(observed.size());
    for (std::size_t j = 0; j < observed.size(); ++j) {
      rewards[j] = oracle.sample(observed[j], rng);
    }
    mwu.update(observed, rewards, rng);
    converged = mwu.converged();
  }
  EXPECT_TRUE(converged);
  EXPECT_EQ(mwu.best_option(), 5u);
}

TEST(DistributedMwu, InitRestoresRoundRobin) {
  DistributedMwu mwu(config_for(4));
  util::RngStream rng(7);
  const std::vector<std::size_t> observed(mwu.population(), 0);
  const std::vector<double> rewards(mwu.population(), 1.0);
  mwu.update(observed, rewards, rng);
  mwu.init();
  // The population is not an exact multiple of k; round-robin leaves the
  // shares within one agent of uniform.
  for (const double p : mwu.probabilities()) EXPECT_NEAR(p, 0.25, 0.05);
}

TEST(DistributedMwu, ExplorationKeepsDiversity) {
  // With mu > 0, even a fully-converged population keeps sampling random
  // options — the memoryless escape hatch of the social-learning model.
  auto config = config_for(16);
  config.exploration = 0.5;
  DistributedMwu mwu(config);
  util::RngStream rng(8);
  // Converge everyone onto option 0 first.
  std::vector<std::size_t> observed(mwu.population(), 0);
  std::vector<double> rewards(mwu.population(), 1.0);
  auto forced = config;
  (void)forced;
  mwu.update(observed, rewards, rng);
  // Now sample: about half the observations should be uniform-random.
  const auto next = mwu.sample(rng);
  std::size_t non_plurality = 0;
  for (const auto o : next) {
    if (o != mwu.best_option()) ++non_plurality;
  }
  EXPECT_GT(non_plurality, next.size() / 4);
}

// sample() and update() as they drew before they copied the stream into a
// local: straight through the caller's reference.  The reference for where
// the stream must be left.
struct ByReferencePopulation {
  MwuConfig config;
  std::vector<std::uint32_t> choices;

  std::vector<std::size_t> sample(util::RngStream& rng) const {
    std::vector<std::size_t> probes(choices.size());
    for (auto& option : probes) {
      if (rng.bernoulli(config.exploration)) {
        option = rng.uniform_index(config.num_options);
      } else {
        option = choices[rng.uniform_index(choices.size())];
      }
    }
    return probes;
  }

  void update(const std::vector<std::size_t>& options,
              const std::vector<double>& rewards, util::RngStream& rng) {
    for (std::size_t j = 0; j < choices.size(); ++j) {
      const double adopt = rewards[j] > 0.0 ? config.adopt_success
                                            : config.adopt_failure;
      if (rng.bernoulli(adopt)) {
        choices[j] = static_cast<std::uint32_t>(options[j]);
      }
    }
  }
};

TEST(DistributedMwu, SampleAndUpdateLeaveTheStreamWhereByReferenceLoopsDo) {
  const auto config = config_for(64);
  DistributedMwu mwu(config);
  ByReferencePopulation reference{config, mwu.choices()};
  std::vector<double> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = static_cast<double>(i) / 63.0;
  }
  const OptionSet options("ramp", values);
  const BernoulliOracle oracle(options);
  util::RngStream rng(21);
  util::RngStream reference_rng(21);
  const auto next_draw = [](util::RngStream stream) {
    return stream.next_u64();
  };
  std::vector<double> rewards;
  std::vector<double> reference_rewards;
  for (int cycle = 0; cycle < 40; ++cycle) {
    const auto& probes = mwu.sample(rng);
    const auto reference_probes = reference.sample(reference_rng);
    ASSERT_EQ(probes, reference_probes) << "cycle " << cycle;
    ASSERT_EQ(next_draw(rng), next_draw(reference_rng)) << "cycle " << cycle;
    rewards.resize(probes.size());
    oracle.sample_batch(probes, rewards, rng);
    reference_rewards.resize(probes.size());
    for (std::size_t j = 0; j < probes.size(); ++j) {
      reference_rewards[j] = oracle.sample(reference_probes[j], reference_rng);
    }
    mwu.update(probes, rewards, rng);
    reference.update(reference_probes, reference_rewards, reference_rng);
    ASSERT_EQ(mwu.choices(), reference.choices) << "cycle " << cycle;
    ASSERT_EQ(next_draw(rng), next_draw(reference_rng)) << "cycle " << cycle;
  }
}

TEST(DistributedMwu, KindIsDistributed) {
  DistributedMwu mwu(config_for(4));
  EXPECT_EQ(mwu.kind(), MwuKind::kDistributed);
}

}  // namespace
}  // namespace mwr::core
