// The gamma-floored weight state that Slate MWU (paper Fig 2) and the Exp3
// extension share.
//
// Both keep one weight vector and draw from the exploration-floored
// distribution p_i = (1 - gamma) * w_i / W + gamma / k, where W is the
// weight total.  They differ only in how a cycle samples (Slate: a slate of
// distinct options through the capped marginals; Exp3: n independent
// draws) and how it updates (Slate: (1 + eta) per rewarded slate member;
// Exp3: an importance-weighted exponential step).  Everything else lives
// here, once: the initial state, materializing p, the convergence test
// against the floor's ceiling (1 - gamma) + gamma / k, the preferred
// option, the renormalization after an update, and the checkpoint layout
// (the raw weights).
#pragma once

#include <span>
#include <vector>

#include "core/mwu.hpp"

namespace mwr::core {

class FlooredWeightMwu : public MwuStrategy {
 public:
  /// Uniform weights (all 1.0, total k).
  void init() override;
  [[nodiscard]] std::vector<double> probabilities() const override;
  [[nodiscard]] bool converged() const override;
  [[nodiscard]] std::size_t best_option() const override;
  /// The raw weights.
  [[nodiscard]] std::vector<double> export_state() const override;
  /// set_weights() over the state vector.
  void import_state(std::span<const double> state) override;

  /// Highest probability the gamma floor admits: (1 - gamma) + gamma / k.
  /// Convergence is measured against this.
  [[nodiscard]] double max_achievable_probability() const noexcept;

  /// Raw (renormalized) weights — exposed for checkpointing and tests.
  [[nodiscard]] const std::vector<double>& weights() const noexcept {
    return weights_;
  }
  /// Replaces the weight state (checkpoint restore).  Throws
  /// std::invalid_argument as validate_weights() does.
  void set_weights(std::vector<double> weights);

 protected:
  /// Checks what both variants require: k > 0 and gamma in (0, 1].
  /// `name` prefixes the std::invalid_argument messages.
  FlooredWeightMwu(const MwuConfig& config, const char* name);

  /// Materializes the exploration-floored probabilities into `p` (resized
  /// to k) without allocating after the first call.
  void materialize_probabilities(std::vector<double>& p) const;

  /// Divides every weight by the largest and refolds the total, after an
  /// update changed the weights.  The divide is the dispatched kernel and
  /// the total keeps the strict left-to-right fold (the reduction-order
  /// contract of util/simd/weight_kernels.hpp).
  void renormalize();

  MwuConfig config_;
  std::vector<double> weights_;

 private:
  double total_weight_ = 0.0;
};

}  // namespace mwr::core
