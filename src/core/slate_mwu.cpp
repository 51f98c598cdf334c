#include "core/slate_mwu.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/slate_projection.hpp"

namespace mwr::core {

std::size_t SlateMwu::slate_size_for(std::size_t num_options, double gamma) {
  const auto k = static_cast<double>(num_options);
  auto s = static_cast<std::size_t>(std::lround(gamma * k));
  s = std::max<std::size_t>(1, s);
  return std::min(s, num_options);
}

SlateMwu::SlateMwu(const MwuConfig& config)
    : FlooredWeightMwu(config, "SlateMwu") {
  if (config.learning_rate <= 0.0 || config.learning_rate > 0.5)
    throw std::invalid_argument("SlateMwu: eta must be in (0, 1/2]");
  slate_size_ = slate_size_for(config.num_options, config.exploration);
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
  renormalize();
}

}  // namespace mwr::core
