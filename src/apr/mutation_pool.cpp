#include "apr/mutation_pool.hpp"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "obs/registry.hpp"
#include "parallel/blocks.hpp"

namespace mwr::apr {

namespace {

/// passes[i] = oracle.passes_alone(members[i]) for every member, in blocks
/// over `workers` (inline when null).  Each block counts into its own
/// tally and books it once, so the suite runs and cache counters reach
/// the totals a per-member evaluate() loop would, without a shared-atomic
/// write per member.
std::vector<char> validate(const TestOracle& oracle,
                           std::span<const Mutation> members,
                           parallel::SuperstepEngine* workers) {
  std::vector<char> passes(members.size(), 0);
  parallel::for_each_block(
      workers, members.size(), [&](std::size_t begin, std::size_t end) {
        TestOracle::ProbeTally tally;
        for (std::size_t i = begin; i < end; ++i)
          passes[i] = oracle.passes_alone(members[i], tally) ? 1 : 0;
        oracle.book(tally);
      });
  return passes;
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
  // The safe members with their keys, so the final sort compares cached
  // keys; the keys are unique, so the order is the key order.
  std::vector<std::pair<std::uint64_t, Mutation>> found;
  std::unordered_set<std::uint64_t> seen;
  util::RngStream master(config.seed);

  // Validate candidates in parallel rounds sized to overshoot the expected
  // yield slightly, then merge; duplicates are skipped *before* validation
  // so a repeated candidate never costs a second suite run.
  const double expected_yield =
      std::max(0.05, oracle.program().spec().safe_rate);
  while (found.size() < config.target_size &&
         pool.attempts_ < config.max_attempts) {
    const std::size_t missing = config.target_size - found.size();
    std::size_t round = static_cast<std::size_t>(
                            static_cast<double>(missing) / expected_yield) +
                        config.threads;
    round = std::min(round, config.max_attempts -
                                static_cast<std::size_t>(pool.attempts_));

    // Candidate generation is sequential (cheap, keeps determinism simple);
    // validation — the expensive suite runs — fans out over the engine.
    std::vector<Mutation> candidates;
    std::vector<std::uint64_t> keys;
    candidates.reserve(round);
    keys.reserve(round);
    while (candidates.size() < round) {
      const Mutation m = random_mutation(oracle.program(), master);
      const std::uint64_t key = m.key();
      if (!seen.insert(key).second) continue;
      candidates.push_back(m);
      keys.push_back(key);
    }
    const std::vector<char> safe = validate(oracle, candidates, workers);
    pool.attempts_ += candidates.size();
    tried.add(candidates.size());
    std::uint64_t safe_count = 0;
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      if (!safe[i]) continue;
      ++safe_count;
      if (found.size() < config.target_size)
        found.emplace_back(keys[i], candidates[i]);
    }
    safe_found.add(safe_count);
  }
  std::sort(found.begin(), found.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  pool.pool_.reserve(found.size());
  for (const auto& entry : found) pool.pool_.push_back(entry.second);
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
  // Verdicts are independent per member, so check the members in blocks
  // over the engine and erase serially afterwards — same survivors, same
  // order, same suite runs and cache counts as a per-member evaluate().
  const std::vector<char> keep = validate(oracle, pool_, workers);
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
