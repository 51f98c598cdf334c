#include "core/exp3_mwu.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

Exp3Mwu::Exp3Mwu(const MwuConfig& config) : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument("Exp3Mwu: num_options == 0");
  if (config.num_agents == 0)
    throw std::invalid_argument("Exp3Mwu: num_agents == 0");
  if (config.exploration <= 0.0 || config.exploration > 1.0)
    throw std::invalid_argument("Exp3Mwu: gamma must be in (0, 1]");
  init();
}

void Exp3Mwu::init() {
  weights_.assign(config_.num_options, 1.0);
  total_weight_ = static_cast<double>(config_.num_options);
  prob_scratch_.assign(config_.num_options, 0.0);
  exp_scratch_.assign(config_.num_options, 0.0);
}

void Exp3Mwu::materialize_probabilities(std::vector<double>& p) const {
  const double gamma = config_.exploration;
  const double floor = gamma / static_cast<double>(weights_.size());
  p.resize(weights_.size());
  // p[i] = (1 - gamma) * w[i] / total + floor, via the dispatched kernel
  // (same operation order as the historical scalar loop, no contraction).
  util::simd::active().materialize_affine(p.data(), weights_.data(),
                                          weights_.size(), 1.0 - gamma,
                                          total_weight_, floor);
}

std::vector<double> Exp3Mwu::probabilities() const {
  std::vector<double> p;
  materialize_probabilities(p);
  return p;
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
  const auto& kernels = util::simd::active();
  kernels.exp_update(weights_.data(), exp_scratch_.data(), weights_.size());
  // Fused max + renormalize + total; the fold order is the reduction-order
  // contract (util/simd/weight_kernels.hpp).
  const double max_weight = kernels.max_reduce(weights_.data(), weights_.size());
  total_weight_ = util::simd::normalize_sum(weights_.data(), weights_.size(),
                                            max_weight);
  for (std::size_t j = 0; j < options.size(); ++j) {
    exp_scratch_[options[j]] = 0.0;
  }
}

void Exp3Mwu::set_weights(std::vector<double> weights) {
  if (weights.size() != config_.num_options)
    throw std::invalid_argument("Exp3Mwu::set_weights: wrong width");
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0))
      throw std::invalid_argument("Exp3Mwu::set_weights: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("Exp3Mwu::set_weights: zero total");
  weights_ = std::move(weights);
  total_weight_ = total;
}

double Exp3Mwu::max_achievable_probability() const noexcept {
  const double gamma = config_.exploration;
  return (1.0 - gamma) + gamma / static_cast<double>(weights_.size());
}

bool Exp3Mwu::converged() const {
  const double max_w =
      util::simd::active().max_reduce(weights_.data(), weights_.size());
  const double gamma = config_.exploration;
  const double p_max = (1.0 - gamma) * max_w / total_weight_ +
                       gamma / static_cast<double>(weights_.size());
  return p_max >= max_achievable_probability() - config_.convergence_tol;
}

std::size_t Exp3Mwu::best_option() const {
  return util::simd::active().argmax(weights_.data(), weights_.size());
}

}  // namespace mwr::core
