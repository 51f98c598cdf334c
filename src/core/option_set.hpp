// Options and cost oracles: the bandit-problem side of the MWU interface.
//
// An option's hidden quality is a value in [0, 1] (higher is better).  The
// algorithms never see values directly; they see stochastic binary outcomes
// through a CostOracle, mirroring the paper's formulation where "the cost
// (reward) is 1 if the sample is correct and 0 otherwise" (§II-A).  In the
// APR application the oracle is a real probe — patch, run the test suite.
// Fitness evaluations are the currency of Table IV and §IV-G; the drivers
// count them as cycles x cpus_per_cycle (MwuResult::evaluations), since
// every cycle probes one option per CPU.  run_mwu hands a cycle's probes to
// the oracle in one sample_batch call, whose contract is the draw order of
// the per-probe sample() loop: an oracle that overrides it (BernoulliOracle,
// to avoid one virtual call per probe) leaves every trajectory unchanged.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace mwr::core {

/// A named set of options with hidden values in [0, 1].
class OptionSet {
 public:
  /// Throws std::invalid_argument on an empty set or out-of-range values.
  OptionSet(std::string name, std::vector<double> values);

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] std::size_t size() const noexcept { return values_.size(); }
  [[nodiscard]] double value(std::size_t option) const { return values_.at(option); }
  [[nodiscard]] std::span<const double> values() const noexcept { return values_; }

  /// Index of the best option in hindsight (ties broken toward the lowest
  /// index, deterministically).
  [[nodiscard]] std::size_t best_option() const noexcept { return best_; }
  [[nodiscard]] double best_value() const noexcept { return values_[best_]; }

  /// The paper's Table III accuracy metric: 100 minus the absolute percent
  /// error of the chosen option's value relative to the best in hindsight.
  [[nodiscard]] double accuracy_percent(std::size_t chosen) const;

 private:
  std::string name_;
  std::vector<double> values_;
  std::size_t best_ = 0;
};

/// Abstract probe: evaluates one option, returning reward 1 or 0.
/// Implementations must be safe for concurrent calls on distinct RngStreams.
class CostOracle {
 public:
  virtual ~CostOracle() = default;

  /// Number of options this oracle can evaluate.
  [[nodiscard]] virtual std::size_t num_options() const = 0;

  /// One stochastic evaluation of `option`; 1.0 = success, 0.0 = failure.
  [[nodiscard]] virtual double sample(std::size_t option,
                                      util::RngStream& rng) const = 0;

  /// Evaluates every probe of one cycle: rewards[j] = sample(probes[j]),
  /// drawing from `rng` in exactly the order of that loop over j, so the
  /// rewards and the stream's final state are the loop's.  An override
  /// may only make the loop cheaper (one virtual call per cycle instead
  /// of one per probe), never change what it draws.  Requires
  /// rewards.size() == probes.size().
  virtual void sample_batch(std::span<const std::size_t> probes,
                            std::span<double> rewards,
                            util::RngStream& rng) const;
};

/// Bernoulli oracle over an OptionSet: sample(i) ~ Bernoulli(value_i).
class BernoulliOracle final : public CostOracle {
 public:
  explicit BernoulliOracle(const OptionSet& options) noexcept
      : options_(&options) {}

  [[nodiscard]] std::size_t num_options() const override {
    return options_->size();
  }
  [[nodiscard]] double sample(std::size_t option,
                              util::RngStream& rng) const override {
    return rng.bernoulli(options_->value(option)) ? 1.0 : 0.0;
  }
  /// The sample() loop over a local copy of the stream.
  void sample_batch(std::span<const std::size_t> probes,
                    std::span<double> rewards,
                    util::RngStream& rng) const override;

 private:
  const OptionSet* options_;
};

}  // namespace mwr::core
