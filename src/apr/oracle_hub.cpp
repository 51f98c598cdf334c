#include "apr/oracle_hub.hpp"

#include <stdexcept>
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
}

OracleHub::Stats OracleHub::stats() const {
  util::MutexLock lock(mutex_);
  return stats_;
}

OracleHub::OracleLease OracleHub::oracle_for(
    const datasets::ScenarioSpec& spec) {
  // Identity of one oracle: the exact (program, suite size, bug).
  const std::uint64_t key = spec.fingerprint();
  std::shared_ptr<OracleEntry> entry;
  PoolLease warm;
  bool builder = false;
  {
    util::MutexLock lock(mutex_);
    auto& slot = oracles_[key];
    if (!slot) {
      slot = std::make_shared<OracleEntry>();
      builder = true;
    }
    entry = slot;
    if (builder) {
      // Prime the fresh oracle from an interned base pool of the same
      // program: one batch of cache inserts instead of per-tenant cold
      // misses.  Fresh campaigns ran phase 1 before their first bug, and
      // resumed ones re-intern their pool first, so a miss here is rare.
      const std::uint64_t program = program_fingerprint(spec);
      for (const auto& [pool_key, pool_slot] : pools_) {
        (void)pool_key;
        if (pool_slot.program_key == program && pool_slot.entry->ready &&
            !pool_slot.entry->failed) {
          warm = pool_slot.entry->lease;
          break;
        }
      }
      ++stats_.oracle_builds;
      if (!warm.pool) {
        ++stats_.cold_oracle_builds;
        oracle_cold_builds_->add(1);
      }
    } else {
      while (!entry->ready) ready_cv_.wait(mutex_);
      if (entry->failed)
        throw std::runtime_error("OracleHub: oracle build failed for " +
                                 spec.name);
      ++stats_.oracle_hits;
      oracle_hits_->add(1);
      return entry->lease;
    }
  }

  OracleLease lease;
  try {
    auto program = std::make_shared<const ProgramModel>(spec);
    auto oracle = std::make_shared<const TestOracle>(*program);
    // Nothing else can see this oracle until `ready` flips below, so the
    // prime cannot race an evaluate().  prime_wave = prime_cache plus the
    // eager wave table (flat masks, safe/relevant bitsets, interference
    // CSR), amortized over every tenant's probe waves.  Its pairs come
    // from the pool's interference graph, hashed once when the pool was
    // interned, not once per (bug, suite) oracle.
    if (warm.pool) {
      oracle->prime_wave(warm.pool->mutations(), warm.graph.get());
    }
    lease.program = std::move(program);
    lease.oracle = std::move(oracle);
  } catch (...) {
    util::MutexLock lock(mutex_);
    entry->failed = true;
    entry->ready = true;
    // Waiters already parked on this entry observe the failure, but the
    // map slot is released so a later campaign retries the build instead
    // of hitting a permanently poisoned fingerprint (the failure may
    // have been transient — allocation pressure, say).
    oracles_.erase(key);
    ready_cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(mutex_);
    entry->lease = lease;
    entry->ready = true;
    ready_cv_.notify_all();
  }
  oracle_builds_->add(1);
  return lease;
}

OracleHub::PoolLease OracleHub::base_pool(const datasets::ScenarioSpec& spec,
                                          const PoolConfig& config,
                                          parallel::SuperstepEngine* workers) {
  const std::uint64_t key = pool_fingerprint(spec, config);
  std::shared_ptr<PoolEntry> entry;
  bool builder = false;
  {
    util::MutexLock lock(mutex_);
    PoolSlot& slot = pools_[key];
    if (!slot.entry) {
      slot.entry = std::make_shared<PoolEntry>();
      slot.program_key = program_fingerprint(spec);
      builder = true;
    }
    entry = slot.entry;
    if (builder) {
      ++stats_.pool_builds;
    } else {
      while (!entry->ready) ready_cv_.wait(mutex_);
      if (entry->failed)
        throw std::runtime_error("OracleHub: pool build failed for " +
                                 spec.name);
      ++stats_.pool_hits;
      pool_hits_->add(1);
      return entry->lease;
    }
  }

  PoolLease lease;
  try {
    // The build uses a private oracle: precompute primes the oracle it is
    // given, and priming a shared one would race other tenants' probes.
    // The analytic identity (precompute suite runs == pool attempts)
    // makes the private counter transferable to every tenant's ledger.
    const ProgramModel program(spec);
    const TestOracle oracle(program);
    auto pool = std::make_shared<const MutationPool>(
        MutationPool::precompute(oracle, config));
    lease.precompute_runs = oracle.suite_runs();
    if (pool->size() <= OracleCache::kMaxWavePool) {
      lease.graph = std::make_shared<const InterferenceGraph>(
          oracle.interference_graph(pool->mutations(), workers));
    }
    lease.pool = std::move(pool);
  } catch (...) {
    util::MutexLock lock(mutex_);
    entry->failed = true;
    entry->ready = true;
    // Same retry contract as oracle_for: fail the parked waiters, free
    // the slot so the next tenant rebuilds instead of inheriting a
    // permanently cached failure.
    pools_.erase(key);
    ready_cv_.notify_all();
    throw;
  }
  {
    util::MutexLock lock(mutex_);
    entry->lease = lease;
    entry->ready = true;
    ready_cv_.notify_all();
  }
  pool_builds_->add(1);
  return lease;
}

}  // namespace mwr::apr
