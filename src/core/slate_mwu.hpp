// Slate MWU (bandit slate selection; paper Fig 2, after [13]).
//
// Global-memory variant specialized for choosing a fixed-size subset of
// options per cycle.  The mixing parameter gamma both floors exploration
// (probabilities are (1 - gamma) * w / sum(w) + gamma / k; that floored
// weight state, its convergence test and its checkpoint layout are
// core/floored_weight_mwu, shared with Exp3) and fixes the slate size as a
// fraction of the option set — the paper observes that the
// fixed gamma "sets the k/n ratio to a constant" (§IV-F), which is why the
// CPU count of Slate grows with instance size in Table IV.
//
// Only slate members receive weight updates, and the exploration floor caps
// how much probability the leader can accumulate; both effects make Slate
// the slowest variant in update cycles (Table II) while the persistent
// exploration gives it the consistently high accuracy of Table III.
//
// sample() draws the slate by systematic sampling of the capped marginals
// (core/slate_projection), O(k) per cycle.  It runs the buffer-taking forms
// of cap_to_slate_marginals and systematic_sample over member scratch, so
// after the first cycle it allocates nothing; the cap replays its fixpoint
// from one pass over the entries, keeping every sum's terms and order,
// hence the trajectory, bit-identical.  The paper's §II-C construction, an
// explicit O(k^2) convex decomposition into slates, realizes the same
// marginals; systematic sampling replaces it.
#pragma once

#include <cstdint>
#include <vector>

#include "core/floored_weight_mwu.hpp"

namespace mwr::core {

class SlateMwu final : public FlooredWeightMwu {
 public:
  /// Throws std::invalid_argument on k == 0, gamma outside (0, 1] or eta
  /// outside (0, 1/2].
  explicit SlateMwu(const MwuConfig& config);

  [[nodiscard]] const std::vector<std::size_t>& sample(
      util::RngStream& rng) override;
  /// Multiplies each rewarded slate member's weight by (1 + eta), then
  /// renormalizes.
  void update(std::span<const std::size_t> options,
              std::span<const double> rewards, util::RngStream& rng) override;
  [[nodiscard]] std::size_t cpus_per_cycle() const override {
    return slate_size_;
  }
  [[nodiscard]] MwuKind kind() const override { return MwuKind::kSlate; }

  [[nodiscard]] std::size_t slate_size() const noexcept { return slate_size_; }

  /// The slate size gamma implies for a k-option instance:
  /// max(1, round(gamma * k)), clamped to k.
  [[nodiscard]] static std::size_t slate_size_for(std::size_t num_options,
                                                  double gamma);

 private:
  std::size_t slate_size_ = 1;
  /// Per-cycle scratch for sample(): the probabilities, the capped
  /// marginals, the cap's uncapped-index list and the returned slate.
  /// Never serialized; sized on the first cycle and reused after it.
  std::vector<double> p_;
  std::vector<double> q_;
  std::vector<std::uint32_t> uncapped_;
  std::vector<std::size_t> probes_;
};

}  // namespace mwr::core
