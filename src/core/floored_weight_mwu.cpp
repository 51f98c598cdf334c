#include "core/floored_weight_mwu.hpp"

#include <stdexcept>
#include <string>

#include "util/simd/weight_kernels.hpp"

namespace mwr::core {

FlooredWeightMwu::FlooredWeightMwu(const MwuConfig& config, const char* name)
    : config_(config) {
  if (config.num_options == 0)
    throw std::invalid_argument(std::string(name) + ": num_options == 0");
  if (config.exploration <= 0.0 || config.exploration > 1.0)
    throw std::invalid_argument(std::string(name) +
                                ": gamma must be in (0, 1]");
  FlooredWeightMwu::init();
}

void FlooredWeightMwu::init() {
  weights_.assign(config_.num_options, 1.0);
  total_weight_ = static_cast<double>(config_.num_options);
}

void FlooredWeightMwu::materialize_probabilities(std::vector<double>& p) const {
  const double gamma = config_.exploration;
  const double floor = gamma / static_cast<double>(weights_.size());
  p.resize(weights_.size());
  // p[i] = (1 - gamma) * w[i] / total + floor, via the dispatched kernel
  // (same operation order as the historical scalar loop, no contraction).
  util::simd::active().materialize_affine(p.data(), weights_.data(),
                                          weights_.size(), 1.0 - gamma,
                                          total_weight_, floor);
}

std::vector<double> FlooredWeightMwu::probabilities() const {
  std::vector<double> p;
  materialize_probabilities(p);
  return p;
}

void FlooredWeightMwu::renormalize() {
  const double max_weight =
      util::simd::active().max_reduce(weights_.data(), weights_.size());
  total_weight_ = util::simd::normalize_sum(weights_.data(), weights_.size(),
                                            max_weight);
}

void FlooredWeightMwu::set_weights(std::vector<double> weights) {
  const double total = validate_weights(weights, config_.num_options);
  weights_ = std::move(weights);
  total_weight_ = total;
}

std::vector<double> FlooredWeightMwu::export_state() const { return weights_; }

void FlooredWeightMwu::import_state(std::span<const double> state) {
  set_weights(std::vector<double>(state.begin(), state.end()));
}

double FlooredWeightMwu::max_achievable_probability() const noexcept {
  const double gamma = config_.exploration;
  return (1.0 - gamma) + gamma / static_cast<double>(weights_.size());
}

bool FlooredWeightMwu::converged() const {
  const double max_w =
      util::simd::active().max_reduce(weights_.data(), weights_.size());
  const double gamma = config_.exploration;
  const double p_max = (1.0 - gamma) * max_w / total_weight_ +
                       gamma / static_cast<double>(weights_.size());
  return p_max >= max_achievable_probability() - config_.convergence_tol;
}

std::size_t FlooredWeightMwu::best_option() const {
  return util::simd::active().argmax(weights_.data(), weights_.size());
}

}  // namespace mwr::core
