// Cross-campaign sharing of programs, oracles, and base pools.
//
// Co-resident campaigns frequently target the same scenario family: a
// thousand-tenant load over ten named scenarios means ~a hundred
// campaigns per (program, suite, bug) triple.  Building a private
// ProgramModel + TestOracle per campaign would duplicate both the model
// memory and — far worse — the oracle's primed semantics and wave table,
// so the pool precompute paid for by one tenant would be re-paid by every
// other.
//
// OracleHub is the ScenarioServices implementation the server hands its
// sessions.  It interns, keyed by a fingerprint of every spec field:
//
//   oracle_for()  — one shared TestOracle per exact (spec, bug, suite)
//                   triple.  All tenants' probes read that oracle's
//                   primed semantics and wave table, so "same scenario +
//                   same mask" dedups across campaigns by construction.  The
//                   hub primes a new oracle (prime_wave: cache plus eager
//                   wave table) from an already-interned base pool of the
//                   same program, and marks the lease shared so tenants
//                   never call prime_cache on it — priming must not race
//                   concurrent evaluate()s.  Invariant: a pool of the
//                   program is interned before any of its oracles is
//                   built.  Fresh campaigns run phase 1 before their first
//                   bug; CampaignSession::resume re-interns the base pool
//                   before opening an oracle, so a restored hub stays
//                   warm.  Stats::cold_oracle_builds (and the
//                   serve.hub.oracle_cold_builds counter) counts the
//                   builds that found no such pool.
//   base_pool()   — one phase-1 precompute per (spec, pool config).  The
//                   lease carries the analytic construction cost
//                   (suite runs == pool attempts) so each tenant's ledger
//                   charges the same precompute_runs a private build
//                   would have, while only the first tenant pays it.  It
//                   also carries the pool's interference graph, hashed
//                   once here: every oracle warmed from the pool derives
//                   its wave's pair CSR from it instead of re-hashing
//                   C(n, 2) pairs per (bug, suite) key.
//
// Thread model: sessions call in from engine fibers on many workers.
// Lookups take the hub mutex; a cache miss publishes a pending entry,
// builds outside the lock, then marks it ready under the lock. Callers
// that race the builder wait on a condition variable — an OS-thread
// block, acceptable because builders never suspend and therefore always
// retire.  A build failure poisons the entry and rethrows to all waiters.
#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "apr/campaign_session.hpp"
#include "util/sync.hpp"

namespace mwr::obs {
class Counter;
}  // namespace mwr::obs

namespace mwr::serve {

class OracleHub final : public apr::ScenarioServices {
 public:
  OracleHub();

  OracleHub(const OracleHub&) = delete;
  OracleHub& operator=(const OracleHub&) = delete;

  OracleLease oracle_for(const datasets::ScenarioSpec& spec) override;
  PoolLease base_pool(const datasets::ScenarioSpec& spec,
                      const apr::PoolConfig& config) override;

  struct Stats {
    std::uint64_t oracle_builds = 0;
    std::uint64_t oracle_hits = 0;
    /// Builds that found no interned pool of the same program, so the
    /// oracle has no wave table (every tenant on it probes slowly).
    std::uint64_t cold_oracle_builds = 0;
    std::uint64_t pool_builds = 0;
    std::uint64_t pool_hits = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  template <typename LeaseT>
  struct Entry {
    bool ready = false;
    bool failed = false;
    LeaseT lease;
  };
  using OracleEntry = Entry<OracleLease>;
  using PoolEntry = Entry<PoolLease>;

  struct PoolSlot {
    std::uint64_t program_key = 0;  ///< spec identity minus (bug, suite).
    std::shared_ptr<PoolEntry> entry;
  };

  mutable util::Mutex mutex_;
  util::CondVar ready_cv_;
  std::map<std::uint64_t, std::shared_ptr<OracleEntry>> oracles_
      MWR_GUARDED_BY(mutex_);
  std::map<std::uint64_t, PoolSlot> pools_ MWR_GUARDED_BY(mutex_);
  Stats stats_ MWR_GUARDED_BY(mutex_);

  obs::Counter* oracle_builds_;
  obs::Counter* oracle_hits_;
  obs::Counter* oracle_cold_builds_;
  obs::Counter* pool_builds_;
  obs::Counter* pool_hits_;
};

}  // namespace mwr::serve
