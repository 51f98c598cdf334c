// Exp3 — an extension variant beyond the paper's three realizations.
//
// The paper's related work (§V-A) traces MWU through "hedge" and the
// adversarial-bandit literature; Exp3 (Auer et al.) is the canonical
// realization there, and practitioners reaching for this library will
// expect it.  Like Standard it is a global-memory algorithm whose n agents
// sample independently each cycle; unlike Standard, its update is
// importance-weighted — an observed reward r on option i counts as
// r / p_i — which makes the weight dynamics unbiased estimates of the full
// reward vector and yields the O(sqrt(T k ln k)) adversarial regret bound.
//
// It is excluded from the paper-table benches (those reproduce the
// published three-column layout) and compared separately in
// bench_exp3_extension.
#pragma once

#include <vector>

#include "core/mwu.hpp"
#include "util/fenwick_sampler.hpp"

namespace mwr::core {

class Exp3Mwu final : public MwuStrategy {
 public:
  explicit Exp3Mwu(const MwuConfig& config);

  void init() override;
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
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kExp3; }

  /// Highest probability the gamma floor admits: (1 - gamma) + gamma / k.
  [[nodiscard]] double max_achievable_probability() const noexcept;

  /// Raw weights — exposed for checkpointing.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }
  /// Replaces the weight state (checkpoint restore).
  void set_weights(std::vector<double> weights);

 private:
  /// Materializes the exploration-floored probabilities into `p` (resized
  /// to k) without allocating after the first call.
  void materialize_probabilities(std::vector<double>& p) const;

  MwuConfig config_;
  std::vector<double> weights_;
  double total_weight_ = 0.0;
  /// Rebuilt from the exploration-floored probabilities at each sample()
  /// call; amortizes the build over the n per-agent draws.
  util::FenwickSampler sampler_;
  /// Persistent per-cycle scratch: probability vector (sample + update) and
  /// importance-weighted exponents (update, accumulated and cleared
  /// sparsely).  Never reallocated after init().
  std::vector<double> prob_scratch_;
  std::vector<double> exp_scratch_;
  /// The buffer sample() fills and returns.
  std::vector<std::size_t> probes_;
};

}  // namespace mwr::core
