#include "apr/mutation_pool.hpp"

#include <algorithm>
#include <functional>
#include <unordered_set>

#include "obs/registry.hpp"
#include "parallel/superstep.hpp"

namespace mwr::apr {

namespace {

/// fn(i) for every i in [0, count), over `workers` or inline when null.
void sweep(parallel::SuperstepEngine* workers, std::size_t count,
           const std::function<void(std::size_t)>& fn) {
  if (workers != nullptr) {
    workers->parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

}  // namespace

MutationPool MutationPool::precompute(const TestOracle& oracle,
                                      const PoolConfig& config,
                                      parallel::SuperstepEngine* workers) {
  // Phase-1 telemetry: candidates tried vs found safe (the yield the
  // §III-C amortization argument depends on) and precompute wall time.
  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& tried = metrics.counter("pool.candidates_tried");
  obs::Counter& safe_found = metrics.counter("pool.safe_found");
  const obs::ScopedTimer phase_timer(
      metrics.histogram("phase.precompute.seconds"));

  MutationPool pool;
  std::unordered_set<std::uint64_t> seen;
  util::RngStream master(config.seed);

  // Validate candidates in parallel rounds sized to overshoot the expected
  // yield slightly, then merge; duplicates are skipped *before* validation
  // so a repeated candidate never costs a second suite run.
  const double expected_yield =
      std::max(0.05, oracle.program().spec().safe_rate);
  while (pool.pool_.size() < config.target_size &&
         pool.attempts_ < config.max_attempts) {
    const std::size_t missing = config.target_size - pool.pool_.size();
    std::size_t round = static_cast<std::size_t>(
                            static_cast<double>(missing) / expected_yield) +
                        config.threads;
    round = std::min(round, config.max_attempts -
                                static_cast<std::size_t>(pool.attempts_));

    // Candidate generation is sequential (cheap, keeps determinism simple);
    // validation — the expensive suite runs — fans out over the engine.
    std::vector<Mutation> candidates;
    candidates.reserve(round);
    while (candidates.size() < round) {
      const Mutation m = random_mutation(oracle.program(), master);
      if (seen.insert(m.key()).second) candidates.push_back(m);
    }
    std::vector<char> safe(candidates.size(), 0);
    sweep(workers, candidates.size(), [&](std::size_t i) {
      const Mutation& m = candidates[i];
      const Evaluation e = oracle.evaluate({&m, 1});
      safe[i] = (e.required_passed == e.required_total) ? 1 : 0;
    });
    pool.attempts_ += candidates.size();
    tried.add(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (safe[i]) {
        safe_found.add(1);
        if (pool.pool_.size() < config.target_size) {
          pool.pool_.push_back(candidates[i]);
        }
      }
    }
  }
  std::sort(pool.pool_.begin(), pool.pool_.end(),
            [](const Mutation& a, const Mutation& b) {
              return a.key() < b.key();
            });
  return pool;
}

MutationPool MutationPool::from_mutations(std::vector<Mutation> mutations) {
  MutationPool pool;
  pool.pool_ = std::move(mutations);
  std::sort(pool.pool_.begin(), pool.pool_.end(),
            [](const Mutation& a, const Mutation& b) {
              return a.key() < b.key();
            });
  pool.pool_.erase(std::unique(pool.pool_.begin(), pool.pool_.end(),
                               [](const Mutation& a, const Mutation& b) {
                                 return a.key() == b.key();
                               }),
                   pool.pool_.end());
  pool.attempts_ = pool.pool_.size();
  return pool;
}

std::size_t MutationPool::revalidate(const TestOracle& oracle,
                                     parallel::SuperstepEngine* workers) {
  const std::size_t before = pool_.size();
  // Verdicts are independent per member, so fan the suite runs out over
  // the engine and erase serially afterwards — same survivors, same
  // order, as the historical serial erase_if.
  std::vector<char> keep(pool_.size(), 1);
  sweep(workers, pool_.size(), [&](std::size_t i) {
    const Evaluation e = oracle.evaluate({&pool_[i], 1});
    keep[i] = (e.required_passed == e.required_total) ? 1 : 0;
  });
  std::size_t write = 0;
  for (std::size_t i = 0; i < pool_.size(); ++i) {
    if (keep[i]) pool_[write++] = pool_[i];
  }
  pool_.resize(write);
  const std::size_t dropped = before - pool_.size();
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("pool.revalidation_runs").add(before);
  metrics.counter("pool.revalidation_dropped").add(dropped);
  return dropped;
}

}  // namespace mwr::apr
