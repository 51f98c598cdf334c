#include "util/rng.hpp"

#include <numeric>

namespace mwr::util {

std::size_t RngStream::weighted_choice(
    const std::vector<double>& weights) noexcept {
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  return weighted_choice(weights, total);
}

std::size_t RngStream::weighted_choice(const std::vector<double>& weights,
                                       double total) noexcept {
  if (total <= 0.0) return weights.size();
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  // Floating-point underrun: the residual mass belongs to the last
  // positive-weight entry.
  for (std::size_t i = weights.size(); i-- > 0;) {
    if (weights[i] > 0.0) return i;
  }
  return weights.size();
}

}  // namespace mwr::util
