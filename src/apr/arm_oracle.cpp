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
  const bool fitness_kept =
      evaluation.fitness() >= oracle_->baseline_fitness();
  switch (config.reward) {
    case RewardMode::kFitnessNonDecrease:
      return fitness_kept ? 1.0 : 0.0;
    case RewardMode::kSafeDensityProxy:
      // E[reward | arm x] proportional to x * P(pass | x): accept in
      // proportion to the validated combination size (MwRepair's rule).
      return (fitness_kept &&
              acceptance < static_cast<double>(patch.size()) /
                               static_cast<double>(config.max_count))
                 ? 1.0
                 : 0.0;
  }
  return 0.0;
}

}  // namespace mwr::apr
