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
// Its draws come from the same gamma-floored distribution as Slate's,
// (1 - gamma) * w / sum(w) + gamma / k; that weight state, its convergence
// test and its checkpoint layout are core/floored_weight_mwu.  Exp3 adds
// only its sampler and its update.
//
// It is excluded from the paper-table benches (those reproduce the
// published three-column layout) and compared separately in
// bench_exp3_extension.
#pragma once

#include <vector>

#include "core/floored_weight_mwu.hpp"
#include "util/fenwick_sampler.hpp"

namespace mwr::core {

class Exp3Mwu final : public FlooredWeightMwu {
 public:
  /// Throws std::invalid_argument on k == 0, n == 0 or gamma outside
  /// (0, 1].
  explicit Exp3Mwu(const MwuConfig& config);

  /// num_agents independent draws from the floored distribution.
  [[nodiscard]] const std::vector<std::size_t>& sample(
      util::RngStream& rng) override;
  /// The importance-weighted exponential step, then renormalization.
  void update(std::span<const std::size_t> options,
              std::span<const double> rewards, util::RngStream& rng) override;
  [[nodiscard]] std::size_t cpus_per_cycle() const override {
    return config_.num_agents;
  }
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kExp3; }

 private:
  /// Rebuilt from the exploration-floored probabilities at each sample()
  /// call; amortizes the build over the n per-agent draws.
  util::FenwickSampler sampler_;
  /// Persistent per-cycle scratch: probability vector (sample + update) and
  /// importance-weighted exponents (update, accumulated and cleared
  /// sparsely, so all zero between cycles).  Sized once, at construction.
  std::vector<double> prob_scratch_;
  std::vector<double> exp_scratch_;
  /// The buffer sample() fills and returns.
  std::vector<std::size_t> probes_;
};

}  // namespace mwr::core
