// Standard MWU (the weighted-majority realization; paper Fig 1).
//
// Global-memory variant: one shared weight vector, all n agents sample
// options proportionally to it each cycle, and every observed reward is
// folded into the shared weights at the end-of-cycle synchronization point.
// The update is multiplicative in the reward, w_i <- w_i * (1 + eta)^r,
// which with weight-proportional sampling produces the rich-get-richer
// concentration the algorithm is known for: fast convergence, but an early
// lucky streak on a near-best option can lock the search in — exactly the
// accuracy profile the paper measures for Standard (lowest of the three,
// §IV-D).
//
// Weights are renormalized by the maximum after each cycle, which preserves
// all probability ratios while keeping the state in floating-point range
// over arbitrarily long runs.
#pragma once

#include <vector>

#include "core/mwu.hpp"
#include "util/fenwick_sampler.hpp"

namespace mwr::core {

class StandardMwu final : public MwuStrategy {
 public:
  explicit StandardMwu(const MwuConfig& config);

  void init() override;
  /// num_agents weight-proportional draws.
  [[nodiscard]] const std::vector<std::size_t>& sample(
      util::RngStream& rng) override;
  void update(std::span<const std::size_t> options,
              std::span<const double> rewards, util::RngStream& rng) override;
  [[nodiscard]] std::vector<double> probabilities() const override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::size_t best_option() const override;
  [[nodiscard]] std::size_t cpus_per_cycle() const override {
    return config_.num_agents;
  }
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kStandard; }
  /// The raw weights.
  [[nodiscard]] std::vector<double> export_state() const override {
    return weights();
  }
  /// set_weights() over the state vector.
  void import_state(std::span<const double> state) override;

  /// Raw (renormalized) weights — exposed for tests and the parallel driver.
  /// The sampler owns the canonical SoA array; there is no duplicate copy.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return sampler_.raw_weights();
  }

  /// Replaces the weight state (checkpoint restore).  Throws
  /// std::invalid_argument as validate_weights() does.
  void set_weights(std::vector<double> weights);

  /// Applies one cycle's aggregated per-option reward counts directly.
  /// This is the reduction form used by the message-passing driver, where
  /// each rank contributes its local counts through an allreduce.
  void apply_reward_counts(std::span<const double> counts_per_option);

 private:
  MwuConfig config_;
  /// Canonical weight storage AND the O(log k) weight-proportional sampler.
  /// The fused rebuild_in_place() pass renormalizes and reconstructs the
  /// tree in one sweep, so weights are touched once per cycle.
  util::FenwickSampler sampler_;
  /// Persistent per-cycle reward-count scratch: accumulated
  /// sparsely, cleared sparsely, never reallocated after the first cycle.
  std::vector<double> counts_scratch_;
  /// The buffer sample() fills and returns.
  std::vector<std::size_t> probes_;
};

}  // namespace mwr::core
