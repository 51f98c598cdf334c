#include "core/exp3_mwu.hpp"

#include <stdexcept>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

Exp3Mwu::Exp3Mwu(const MwuConfig& config)
    : FlooredWeightMwu(config, "Exp3Mwu"),
      prob_scratch_(config.num_options, 0.0),
      exp_scratch_(config.num_options, 0.0) {
  if (config.num_agents == 0)
    throw std::invalid_argument("Exp3Mwu: num_agents == 0");
}

const std::vector<std::size_t>& Exp3Mwu::sample(util::RngStream& rng) {
  // One O(k) sampler build amortized over the n agent draws, each O(log k)
  // instead of the O(k) linear scan over the probability vector.  The
  // probabilities land in persistent scratch — no per-call allocation.
  materialize_probabilities(prob_scratch_);
  sampler_.rebuild(prob_scratch_);
  probes_.resize(config_.num_agents);
  for (auto& option : probes_) {
    option = sampler_.sample(rng);
  }
  return probes_;
}

void Exp3Mwu::update(std::span<const std::size_t> options,
                     std::span<const double> rewards,
                     util::RngStream& /*rng*/) {
  if (options.size() != rewards.size())
    throw std::invalid_argument("Exp3Mwu::update: size mismatch");
  materialize_probabilities(prob_scratch_);
  const double gamma = config_.exploration;
  const auto k = static_cast<double>(weights_.size());

  // Importance-weighted exponential update, aggregated per option into the
  // persistent scratch (accumulated sparsely, cleared sparsely below).  The
  // exponent gamma * (r / p_i) / k is at most 1 because p_i >= gamma / k.
  for (std::size_t j = 0; j < options.size(); ++j) {
    if (rewards[j] > 0.0) {
      exp_scratch_[options[j]] +=
          gamma * (rewards[j] / prob_scratch_[options[j]]) / k;
    }
  }
  util::simd::active().exp_update(weights_.data(), exp_scratch_.data(),
                                  weights_.size());
  renormalize();
  for (std::size_t j = 0; j < options.size(); ++j) {
    exp_scratch_[options[j]] = 0.0;
  }
}

}  // namespace mwr::core
