// The twenty-dataset evaluation suite of Tables II-IV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/option_set.hpp"

namespace mwr::datasets {

/// One evaluation dataset: the option set plus its table grouping.
struct Dataset {
  std::string family;  ///< "random", "unimodal", "C", or "Java".
  core::OptionSet options;
};

/// Builds the paper's full suite — 5 random + 5 unimodal (sizes 2^6..2^14)
/// + 5 C scenarios + 5 Java scenarios — deterministically from `seed`.
/// Instances larger than `max_size` options are skipped (the reduced
/// default configuration of the benches; --full passes 16384).
[[nodiscard]] std::vector<Dataset> standard_suite(std::uint64_t seed,
                                                  std::size_t max_size = 16384);

}  // namespace mwr::datasets
