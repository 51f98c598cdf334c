#include "apr/mwrepair.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "apr/repair_session.hpp"
#include "parallel/superstep.hpp"

namespace mwr::apr {

MwRepair::MwRepair(MwRepairConfig config) : config_(config) {
  if (config_.arms == 0) throw std::invalid_argument("MwRepair: arms == 0");
  if (config_.max_count == 0)
    throw std::invalid_argument("MwRepair: max_count == 0");
  config_.arms = std::min(config_.arms, config_.max_count);
  counts_.resize(config_.arms, config_.max_count);
  if (config_.arms == 1) return;
  // Geometric grid over [1, max_count]: repair-density optima range over
  // more than an order of magnitude across programs (11..271, §III-B), so
  // log spacing gives every scenario several arms near its mode instead of
  // wasting most of the grid far above small optima.
  for (std::size_t arm = 0; arm < config_.arms; ++arm) {
    const double t =
        static_cast<double>(arm) / static_cast<double>(config_.arms - 1);
    const double count = std::pow(static_cast<double>(config_.max_count), t);
    counts_[arm] = std::min(config_.max_count,
                            static_cast<std::size_t>(std::lround(count)));
  }
}

RepairOutcome MwRepair::run(const TestOracle& oracle,
                            const MutationPool& pool) const {
  if (pool.empty())
    throw std::invalid_argument("MwRepair::run: empty mutation pool");

  // The whole algorithm lives in RepairSession (one update cycle per
  // step(), checkpointable between cycles — see apr/repair_session.hpp);
  // run() is the batch driver: construct a session and step it to
  // completion.  The session performs every stochastic draw in the same
  // order this function historically did, so batch and stepped
  // trajectories are bit-identical.  Priming first gives the search the
  // probe-wave fast path (a no-op when the pool is already primed).
  oracle.prime_wave(pool.mutations());
  RepairSession session(config_, oracle, pool);

  // The expensive suite runs fan out over the engine (inline at one
  // thread); everything stochastic (patch draws, proxy-acceptance draws)
  // happens sequentially first, so the outcome is identical for any
  // eval_threads value.
  parallel::SuperstepEngine workers(
      1, parallel::SuperstepEngine::Config{
             std::max<std::size_t>(1, config_.eval_threads)});
  while (!session.step(&workers)) {
  }
  return session.outcome();
}

}  // namespace mwr::apr
