#include "core/option_set.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mwr::core {

OptionSet::OptionSet(std::string name, std::vector<double> values)
    : name_(std::move(name)), values_(std::move(values)) {
  if (values_.empty())
    throw std::invalid_argument("OptionSet '" + name_ + "' is empty");
  for (double v : values_) {
    if (!(v >= 0.0 && v <= 1.0) || !std::isfinite(v))
      throw std::invalid_argument("OptionSet '" + name_ +
                                  "' has a value outside [0, 1]");
  }
  best_ = static_cast<std::size_t>(
      std::max_element(values_.begin(), values_.end()) - values_.begin());
}

double OptionSet::accuracy_percent(std::size_t chosen) const {
  const double best = best_value();
  if (best <= 0.0) return 100.0;  // every option is optimal
  const double err = std::abs(best - value(chosen)) / best;
  return 100.0 * (1.0 - err);
}

void CostOracle::sample_batch(std::span<const std::size_t> probes,
                              std::span<double> rewards,
                              util::RngStream& rng) const {
  for (std::size_t j = 0; j < probes.size(); ++j) {
    rewards[j] = sample(probes[j], rng);
  }
}

void BernoulliOracle::sample_batch(std::span<const std::size_t> probes,
                                   std::span<double> rewards,
                                   util::RngStream& rng) const {
  util::RngStream local = rng;
  for (std::size_t j = 0; j < probes.size(); ++j) {
    rewards[j] = local.bernoulli(options_->value(probes[j])) ? 1.0 : 0.0;
  }
  rng = local;
}

}  // namespace mwr::core
