#include "datasets/suite.hpp"

#include "datasets/distributions.hpp"
#include "datasets/scenario.hpp"

namespace mwr::datasets {

std::vector<Dataset> standard_suite(std::uint64_t seed, std::size_t max_size) {
  std::vector<Dataset> suite;
  for (std::size_t size : synthetic_sizes()) {
    if (size > max_size) continue;
    suite.push_back({"random", make_random(size, seed ^ (size * 2654435761ULL))});
  }
  for (std::size_t size : synthetic_sizes()) {
    if (size > max_size) continue;
    suite.push_back(
        {"unimodal", make_unimodal(size, seed ^ (size * 40503ULL) ^ 0xffULL)});
  }
  for (const auto& spec : c_scenarios()) {
    if (spec.options > max_size) continue;
    suite.push_back({"C", spec.option_set()});
  }
  for (const auto& spec : java_scenarios()) {
    if (spec.options > max_size) continue;
    suite.push_back({"Java", spec.option_set()});
  }
  return suite;
}

}  // namespace mwr::datasets
