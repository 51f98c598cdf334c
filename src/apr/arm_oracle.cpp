#include "apr/arm_oracle.hpp"

#include <algorithm>
#include <stdexcept>

#include "apr/mutation.hpp"

namespace mwr::apr {

ArmProbeOracle::ArmProbeOracle(const TestOracle& oracle,
                               const MutationPool& pool,
                               const MwRepairConfig& config)
    : oracle_(&oracle), pool_(&pool), repair_(config) {
  if (pool.empty())
    throw std::invalid_argument("ArmProbeOracle: empty mutation pool");
  // Build the probe wave before any fork: workers then share it read-only
  // (copy-on-write), and every sampled pooled patch evaluates through it
  // instead of re-hashing its pairs.
  oracle.prime_wave(pool.mutations());
}

double ArmProbeOracle::sample(std::size_t option, util::RngStream& rng) const {
  const MwRepairConfig& config = repair_.config();
  if (option >= config.arms)
    throw std::out_of_range("ArmProbeOracle::sample: bad arm");
  const std::size_t count =
      std::min(repair_.count_for_arm(option), pool_->size());
  const Patch patch = sample_from_pool(pool_->mutations(), count, rng);
  const double acceptance = rng.uniform();
  const Evaluation evaluation = oracle_->evaluate(patch);
  return probe_reward(config.reward,
                      evaluation.fitness() >= oracle_->baseline_fitness(),
                      acceptance, patch.size(), config.max_count);
}

}  // namespace mwr::apr
