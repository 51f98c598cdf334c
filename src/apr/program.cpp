#include "apr/program.hpp"

#include <stdexcept>

namespace mwr::apr {

ProgramModel::ProgramModel(datasets::ScenarioSpec spec)
    : spec_(std::move(spec)),
      coverage_threshold_(unit_threshold(spec_.coverage)) {
  if (spec_.statements == 0)
    throw std::invalid_argument("ProgramModel: scenario has no statements");
  if (spec_.coverage <= 0.0 || spec_.coverage > 1.0)
    throw std::invalid_argument("ProgramModel: coverage outside (0, 1]");
  covered_.reserve(
      static_cast<std::size_t>(spec_.coverage * static_cast<double>(spec_.statements)) + 1);
  for (std::size_t s = 0; s < spec_.statements; ++s) {
    if (is_covered(s)) covered_.push_back(static_cast<std::uint32_t>(s));
  }
  if (covered_.empty())
    throw std::invalid_argument("ProgramModel: no covered statements");
}

bool ProgramModel::is_covered(std::size_t statement) const {
  return (stable_hash(spec_.seed, 0xC0FFEE, statement) >> 11) <
         coverage_threshold_;  // hash_to_unit(h) < coverage
}

}  // namespace mwr::apr
