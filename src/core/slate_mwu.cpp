#include "core/slate_mwu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/slate_projection.hpp"
#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

std::size_t SlateMwu::slate_size_for(std::size_t num_options, double gamma) {
  const auto k = static_cast<double>(num_options);
  auto s = static_cast<std::size_t>(std::lround(gamma * k));
  s = std::max<std::size_t>(1, s);
  return std::min(s, num_options);
}

SlateMwu::SlateMwu(const MwuConfig& config) : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument("SlateMwu: num_options == 0");
  if (config.exploration <= 0.0 || config.exploration > 1.0)
    throw std::invalid_argument("SlateMwu: gamma must be in (0, 1]");
  if (config.learning_rate <= 0.0 || config.learning_rate > 0.5)
    throw std::invalid_argument("SlateMwu: eta must be in (0, 1/2]");
  slate_size_ = slate_size_for(config.num_options, config.exploration);
  init();
}

void SlateMwu::init() {
  weights_.assign(config_.num_options, 1.0);
  total_weight_ = static_cast<double>(config_.num_options);
}

void SlateMwu::materialize_probabilities(std::vector<double>& p) const {
  const double gamma = config_.exploration;
  const double floor = gamma / static_cast<double>(weights_.size());
  p.resize(weights_.size());
  // p[i] = (1 - gamma) * w[i] / total + floor, via the dispatched kernel
  // (same operation order as the historical scalar loop, no contraction).
  util::simd::active().materialize_affine(p.data(), weights_.data(),
                                          weights_.size(), 1.0 - gamma,
                                          total_weight_, floor);
}

std::vector<double> SlateMwu::probabilities() const {
  std::vector<double> p;
  materialize_probabilities(p);
  return p;
}

const std::vector<std::size_t>& SlateMwu::sample(util::RngStream& rng) {
  // The same three steps as probabilities() -> cap_to_slate_marginals ->
  // systematic_sample, each writing into a member buffer.
  materialize_probabilities(p_);
  cap_to_slate_marginals(p_, slate_size_, q_, uncapped_);
  systematic_sample(q_, slate_size_, rng, probes_);
  return probes_;
}

void SlateMwu::update(std::span<const std::size_t> options,
                      std::span<const double> rewards,
                      util::RngStream& /*rng*/) {
  if (options.size() != rewards.size())
    throw std::invalid_argument("SlateMwu::update: size mismatch");
  const double growth = 1.0 + config_.learning_rate;
  for (std::size_t j = 0; j < options.size(); ++j) {
    if (rewards[j] > 0.0) weights_[options[j]] *= growth;
  }
  // Fused max + renormalize + total: the divide is the dispatched kernel's
  // op-for-op twin of the historical loop, and the total keeps the strict
  // left-to-right fold (reduction-order contract).
  const auto& kernels = util::simd::active();
  const double max_weight = kernels.max_reduce(weights_.data(), weights_.size());
  total_weight_ = util::simd::normalize_sum(weights_.data(), weights_.size(),
                                            max_weight);
}

void SlateMwu::set_weights(std::vector<double> weights) {
  if (weights.size() != config_.num_options)
    throw std::invalid_argument("SlateMwu::set_weights: wrong width");
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0))
      throw std::invalid_argument("SlateMwu::set_weights: negative weight");
    total += w;
  }
  if (total <= 0.0)
    throw std::invalid_argument("SlateMwu::set_weights: zero total");
  weights_ = std::move(weights);
  total_weight_ = total;
}

double SlateMwu::max_achievable_probability() const noexcept {
  const double gamma = config_.exploration;
  return (1.0 - gamma) + gamma / static_cast<double>(weights_.size());
}

bool SlateMwu::converged() const {
  const double max_w =
      util::simd::active().max_reduce(weights_.data(), weights_.size());
  const double gamma = config_.exploration;
  const double p_max = (1.0 - gamma) * max_w / total_weight_ +
                       gamma / static_cast<double>(weights_.size());
  return p_max >= max_achievable_probability() - config_.convergence_tol;
}

std::size_t SlateMwu::best_option() const {
  return util::simd::active().argmax(weights_.data(), weights_.size());
}

}  // namespace mwr::core
