#include "apr/oracle_hub.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "obs/registry.hpp"
#include "parallel/superstep.hpp"
#include "util/fnv.hpp"

namespace mwr::apr {

namespace {

/// Identity of the *program*: every spec field except the bug targeted
/// and the suite size.  Pools precomputed for any bug of the program can
/// warm an oracle for any other bug of the same program (coverage,
/// safety, and interference are program properties — the invariant the
/// whole amortization story rests on).
std::uint64_t program_fingerprint(const datasets::ScenarioSpec& spec) {
  datasets::ScenarioSpec program = spec;
  program.tests = 0;
  program.bug_id = 0;
  return program.fingerprint();
}

/// Identity of one precomputed base pool: the oracle it was validated
/// against plus the pool-shaping knobs.  `threads` is included: the pool
/// is the same for any worker count, but precompute sizes its validation
/// rounds by it, so its attempts (the lease's precompute_runs) are not.
std::uint64_t pool_fingerprint(const datasets::ScenarioSpec& spec,
                               const PoolConfig& config) {
  std::uint64_t h = spec.fingerprint();
  h = util::fnv_fold(h, config.target_size);
  h = util::fnv_fold(h, config.max_attempts);
  h = util::fnv_fold(h, config.seed);
  h = util::fnv_fold(h, config.threads);
  return h;
}

}  // namespace

OracleHub::OracleHub() {
  auto& metrics = obs::MetricsRegistry::global();
  oracle_builds_ = &metrics.counter("serve.hub.oracle_builds");
  oracle_hits_ = &metrics.counter("serve.hub.oracle_hits");
  oracle_cold_builds_ = &metrics.counter("serve.hub.oracle_cold_builds");
  pool_builds_ = &metrics.counter("serve.hub.pool_builds");
  pool_hits_ = &metrics.counter("serve.hub.pool_hits");
  evictions_ = &metrics.counter("serve.hub.evictions");
}

OracleHub& OracleHub::process() {
  static OracleHub hub;
  return hub;
}

OracleHub::Stats OracleHub::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

template <typename EntryT, typename Build>
typename EntryT::Lease OracleHub::intern(Table<EntryT> OracleHub::*table,
                                         std::uint64_t key, EntryT fresh,
                                         const Tally& tally,
                                         const std::string& name,
                                         Build&& build) {
  std::shared_ptr<EntryT> entry;
  {
    util::MutexLock lock(mutex_);
    std::shared_ptr<EntryT>& slot = (this->*table)[key];
    if (slot) {
      entry = slot;
      while (!entry->ready) ready_cv_.wait(mutex_);
      if (entry->failed)
        throw std::runtime_error(std::string("OracleHub: ") + tally.kind +
                                 " build failed for " + name);
      entry->last_use = ++use_clock_;
      ++(stats_.*tally.hits);
      tally.hit_counter->add(1);
      return entry->lease;
    }
    slot = std::make_shared<EntryT>(std::move(fresh));
    entry = slot;
    ++(stats_.*tally.builds);
  }

  typename EntryT::Lease lease;
  try {
    lease = build();
  } catch (...) {
    util::MutexLock lock(mutex_);
    entry->failed = true;
    entry->ready = true;
    (this->*table).erase(key);
    ready_cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(mutex_);
    entry->lease = lease;
    entry->ready = true;
    entry->last_use = ++use_clock_;
    ready_cv_.notify_all();
    evict_over_cap(this->*table, tally.cap);
  }
  tally.build_counter->add(1);
  return lease;
}

template <typename EntryT>
void OracleHub::evict_over_cap(Table<EntryT>& table, std::size_t cap) {
  // Each publish adds one ready entry, so one eviction restores the cap.
  std::size_t ready = 0;
  auto oldest = table.end();
  for (auto it = table.begin(); it != table.end(); ++it) {
    if (!it->second->ready) continue;
    ++ready;
    if (oldest == table.end() ||
        it->second->last_use < oldest->second->last_use)
      oldest = it;
  }
  if (ready <= cap) return;
  table.erase(oldest);
  ++stats_.evictions;
  evictions_->add(1);
}

OracleHub::OracleLease OracleHub::oracle_for(
    const datasets::ScenarioSpec& spec, parallel::SuperstepEngine* workers) {
  const auto build = [&] {
    // Prime the fresh oracle from an interned base pool of the same
    // program: one batch of cache inserts instead of per-tenant cold
    // misses.  Fresh campaigns ran phase 1 before their first bug, and
    // resumed ones re-intern their pool first, so a miss here is rare.
    PoolLease warm;
    {
      const std::uint64_t program = program_fingerprint(spec);
      util::MutexLock lock(mutex_);
      for (const auto& [pool_key, pool] : pools_) {
        (void)pool_key;
        if (pool->ready && !pool->failed && pool->program_key == program) {
          pool->last_use = ++use_clock_;
          warm = pool->lease;
          break;
        }
      }
      if (!warm.pool) {
        ++stats_.cold_oracle_builds;
        oracle_cold_builds_->add(1);
      }
    }
    auto program = std::make_shared<const ProgramModel>(spec);
    auto oracle = std::make_shared<const TestOracle>(*program);
    // Nothing else can see this oracle until it is published ready, so
    // the prime cannot race an evaluate().  prime_wave = prime_cache plus
    // the eager wave table (flat masks, safe/relevant bitsets,
    // interference CSR), amortized over every tenant's probe waves.  Its
    // pairs come from the pool's interference graph, hashed once when the
    // pool was interned, not once per (bug, suite) oracle.  A campaign
    // stepping on an engine primes over it; the served path has none.
    if (warm.pool) {
      oracle->prime_wave(warm.pool->mutations(), warm.graph.get(), workers);
    }
    return OracleLease{std::move(program), std::move(oracle)};
  };
  // Identity of one oracle: the exact (program, suite size, bug).
  return intern(&OracleHub::oracles_, spec.fingerprint(), OracleEntry{},
                {"oracle", kMaxOracles, &Stats::oracle_builds,
                 &Stats::oracle_hits, oracle_builds_, oracle_hits_},
                spec.name, build);
}

OracleHub::PoolLease OracleHub::base_pool(const datasets::ScenarioSpec& spec,
                                          const PoolConfig& config,
                                          parallel::SuperstepEngine* workers) {
  const auto build = [&] {
    // The build uses a private oracle, so its suite-run counter holds this
    // precompute's runs alone; nothing evaluates on it afterwards, so it is
    // not primed (each bug's oracle is, by oracle_for).  The analytic
    // identity (precompute suite runs == pool attempts) makes the private
    // counter transferable to every tenant's ledger.
    const ProgramModel program(spec);
    const TestOracle oracle(program);
    PoolLease lease;
    auto pool = std::make_shared<const MutationPool>(
        MutationPool::precompute(oracle, config, workers));
    lease.precompute_runs = oracle.suite_runs();
    if (pool->size() <= OracleCache::kMaxWavePool) {
      lease.graph = std::make_shared<const InterferenceGraph>(
          oracle.interference_graph(pool->mutations(), workers));
    }
    lease.pool = std::move(pool);
    return lease;
  };
  PoolEntry fresh;
  fresh.program_key = program_fingerprint(spec);
  return intern(&OracleHub::pools_, pool_fingerprint(spec, config),
                std::move(fresh),
                {"pool", kMaxPools, &Stats::pool_builds, &Stats::pool_hits,
                 pool_builds_, pool_hits_},
                spec.name, build);
}

}  // namespace mwr::apr
