#include "core/serialization.hpp"

#include <cmath>
#include <stdexcept>

namespace mwr::core {

std::vector<double> export_state(const MwuStrategy& strategy) {
  return strategy.export_state();
}

void import_state(MwuStrategy& strategy, const std::vector<double>& state) {
  for (const double v : state) {
    if (!std::isfinite(v))
      throw std::invalid_argument("import_state: non-finite state value");
  }
  strategy.import_state(state);
}

}  // namespace mwr::core
