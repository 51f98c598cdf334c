#include "core/serialization.hpp"

#include <cmath>
#include <cstdint>
#include <stdexcept>

#include "core/distributed_mwu.hpp"
#include "core/exp3_mwu.hpp"
#include "core/slate_mwu.hpp"
#include "core/standard_mwu.hpp"

namespace mwr::core {

std::vector<double> export_state(const MwuStrategy& strategy) {
  if (const auto* standard = dynamic_cast<const StandardMwu*>(&strategy)) {
    return standard->weights();
  }
  if (const auto* slate = dynamic_cast<const SlateMwu*>(&strategy)) {
    return slate->weights();
  }
  if (const auto* exp3 = dynamic_cast<const Exp3Mwu*>(&strategy)) {
    return exp3->weights();
  }
  if (const auto* distributed =
          dynamic_cast<const DistributedMwu*>(&strategy)) {
    std::vector<double> state;
    state.reserve(distributed->choices().size());
    for (const auto c : distributed->choices()) {
      state.push_back(static_cast<double>(c));
    }
    return state;
  }
  throw std::invalid_argument("export_state: unknown strategy type");
}

void import_state(MwuStrategy& strategy, const std::vector<double>& state) {
  for (const double v : state) {
    if (!std::isfinite(v))
      throw std::invalid_argument("import_state: non-finite state value");
  }
  if (auto* standard = dynamic_cast<StandardMwu*>(&strategy)) {
    standard->set_weights(state);
    return;
  }
  if (auto* slate = dynamic_cast<SlateMwu*>(&strategy)) {
    slate->set_weights(state);
    return;
  }
  if (auto* exp3 = dynamic_cast<Exp3Mwu*>(&strategy)) {
    exp3->set_weights(state);
    return;
  }
  if (auto* distributed = dynamic_cast<DistributedMwu*>(&strategy)) {
    // Range first: casting a double outside [0, 2^32) to uint32_t is
    // undefined behaviour, and the vector may come from disk.
    const auto options =
        static_cast<double>(distributed->probabilities().size());
    std::vector<std::uint32_t> choices;
    choices.reserve(state.size());
    for (const double v : state) {
      if (!(v >= 0.0 && v < options) || v != std::floor(v))
        throw std::invalid_argument(
            "import_state: Distributed choice is not an option index");
      choices.push_back(static_cast<std::uint32_t>(v));
    }
    distributed->set_choices(choices);
    return;
  }
  throw std::invalid_argument("import_state: unknown strategy type");
}

}  // namespace mwr::core
