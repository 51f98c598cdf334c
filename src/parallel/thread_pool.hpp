// The old name of the data-parallel substrate, kept as a named constructor
// for one caller: e2ebench/batch_workloads.cpp still spells
// `parallel::ThreadPool` for CampaignSession::step.  Every sweep runs on
// SuperstepEngine::parallel_for; nothing in src/, tools/, examples/,
// bench/ or tests/ includes this header.  Delete it with the next change
// to the benchmark.
#pragma once

#include <cstddef>

#include "parallel/superstep.hpp"

namespace mwr::parallel {

struct ThreadPool : SuperstepEngine {
  explicit ThreadPool(std::size_t threads)
      : SuperstepEngine(1, Config{threads}) {}
};

}  // namespace mwr::parallel
