// The one source of a campaign's programs, oracles, and base pools.
//
// Every CampaignSession draws its resources from an OracleHub: the
// server hands all of its sessions one shared hub, and a session built
// without one draws from the process hub (OracleHub::process()), so
// back-to-back run_campaign calls in one process reuse each other's
// pools and primed oracles.  Co-resident campaigns
// frequently target the same scenario family — a thousand-tenant load
// over ten named scenarios means ~a hundred campaigns per (program,
// suite, bug) triple — so interning per key lets the pool precompute
// paid for by one tenant serve every other, and a single-shot campaign
// takes exactly the same path.
//
// The hub interns, keyed by a fingerprint of every spec field:
//
//   oracle_for()  — one TestOracle per exact (spec, bug, suite) triple.
//                   Every tenant's probes read that oracle's primed
//                   semantics and wave table, so "same scenario + same
//                   mask" dedups across campaigns by construction.  The
//                   hub primes a new oracle (prime_wave: cache plus eager
//                   wave table) from an already-interned base pool of the
//                   same program before any tenant can see it, so priming
//                   never races concurrent evaluate()s and tenants never
//                   prime.  Invariant: a pool of the program is interned
//                   before any of its oracles is built.  Fresh campaigns
//                   run phase 1 before their first bug;
//                   CampaignSession::resume re-interns the base pool
//                   before opening an oracle, so a restored hub stays
//                   warm.  Stats::cold_oracle_builds (and the
//                   serve.hub.oracle_cold_builds counter) counts the
//                   builds that found no such pool.
//   base_pool()   — one phase-1 precompute per (spec, pool config).  The
//                   lease carries the analytic construction cost (suite
//                   runs == pool attempts) so each tenant's ledger charges
//                   the same precompute_runs, while only the first tenant
//                   pays it.  It also carries the pool's interference
//                   graph, hashed once here: every oracle warmed from the
//                   pool derives its wave's pair CSR from it instead of
//                   re-hashing C(n, 2) pairs per (bug, suite) key.
//
// Bounded: each table keeps at most its cap of ready entries (the process
// hub lives as long as the process, and a server's grows with every
// distinct SUBMIT spec).  Publishing an entry past the cap evicts the
// least recently used ready one; a pending entry is never evicted.  A
// lease is a set of shared_ptrs, so a holder is unaffected by eviction;
// a later lookup of an evicted key builds it again.  Stats::evictions
// (and the serve.hub.evictions counter) counts evictions.
//
// Thread model: sessions call in from engine fibers on many workers.
// Lookups take the hub mutex; a cache miss publishes a pending entry,
// builds outside the lock, then marks it ready under the lock. Callers
// that race the builder wait on a condition variable — an OS-thread
// block, acceptable because builders never suspend and therefore always
// retire.  A build failure poisons the entry and rethrows to all waiters.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "apr/interference_graph.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/program.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"
#include "util/sync.hpp"

namespace mwr::obs {
class Counter;
}  // namespace mwr::obs

namespace mwr::parallel {
class SuperstepEngine;
}  // namespace mwr::parallel

namespace mwr::apr {

class OracleHub {
 public:
  /// A program + oracle pair; `program` owns the model `oracle` points
  /// into, so holders keep both alive together.  The oracle is primed
  /// before it is leased and read-only afterwards.
  struct OracleLease {
    std::shared_ptr<const ProgramModel> program;
    std::shared_ptr<const TestOracle> oracle;
  };
  /// A base (phase-1) pool plus the suite runs its construction cost.
  /// `graph`, when set, is the pool's interference graph: the hub primes
  /// every oracle it warms from this pool with it.
  struct PoolLease {
    std::shared_ptr<const MutationPool> pool;
    std::uint64_t precompute_runs = 0;
    std::shared_ptr<const InterferenceGraph> graph;
  };

  /// Ready entries each table keeps (DESIGN.md §14 sizes them from
  /// measured bytes per entry).
  static constexpr std::size_t kMaxOracles = 128;
  static constexpr std::size_t kMaxPools = 32;

  OracleHub();

  OracleHub(const OracleHub&) = delete;
  OracleHub& operator=(const OracleHub&) = delete;

  /// The hub of every CampaignSession built without one: one per
  /// process, constructed on first use and kept until exit.
  static OracleHub& process();

  /// Program + oracle for `spec` (the full spec, bug_id and grown test
  /// count included).  `workers` (may be null) primes an oracle built
  /// here: its pool semantics and wave rows are computed in blocks over
  /// the engine.  The oracle is the same either way.
  OracleLease oracle_for(const datasets::ScenarioSpec& spec,
                         parallel::SuperstepEngine* workers = nullptr);

  /// The precomputed base pool for (spec, config).  `workers` (may be
  /// null) runs the precompute's suite runs and splits the
  /// interference-graph build of a pool built here.
  PoolLease base_pool(const datasets::ScenarioSpec& spec,
                      const PoolConfig& config,
                      parallel::SuperstepEngine* workers = nullptr);

  struct Stats {
    std::uint64_t oracle_builds = 0;
    std::uint64_t oracle_hits = 0;
    /// Builds that found no interned pool of the same program, so the
    /// oracle has no wave table (every tenant on it probes slowly).
    std::uint64_t cold_oracle_builds = 0;
    std::uint64_t pool_builds = 0;
    std::uint64_t pool_hits = 0;
    /// Ready entries dropped, from either table, to stay within its cap.
    std::uint64_t evictions = 0;
  };
  [[nodiscard]] Stats stats() const;

 private:
  template <typename LeaseT>
  struct Entry {
    using Lease = LeaseT;
    bool ready = false;
    bool failed = false;
    std::uint64_t last_use = 0;  ///< use_clock_ at the latest publish or hit.
    LeaseT lease;
  };
  using OracleEntry = Entry<OracleLease>;
  struct PoolEntry : Entry<PoolLease> {
    std::uint64_t program_key = 0;  ///< spec identity minus (bug, suite).
  };
  template <typename EntryT>
  using Table = std::map<std::uint64_t, std::shared_ptr<EntryT>>;

  /// What one table counts, what its failures are called, and how many
  /// ready entries it keeps.
  struct Tally {
    const char* kind;
    std::size_t cap;
    std::uint64_t Stats::*builds;
    std::uint64_t Stats::*hits;
    obs::Counter* build_counter;
    obs::Counter* hit_counter;
  };

  /// The intern protocol both tables share.  A hit waits for the entry
  /// to be ready and returns its lease.  A miss publishes `fresh` as the
  /// pending entry, runs `build` without the lock and publishes its lease
  /// ready.  A failed build poisons the entry for the callers already
  /// parked on it, frees the slot so a later caller retries (the failure
  /// may have been transient, allocation pressure say) and rethrows.
  template <typename EntryT, typename Build>
  typename EntryT::Lease intern(Table<EntryT> OracleHub::*table,
                                std::uint64_t key, EntryT fresh,
                                const Tally& tally, const std::string& name,
                                Build&& build) MWR_EXCLUDES(mutex_);

  /// Evicts the least recently used ready entry when more than `cap`
  /// are ready.
  template <typename EntryT>
  void evict_over_cap(Table<EntryT>& table, std::size_t cap)
      MWR_REQUIRES(mutex_);

  mutable util::Mutex mutex_;
  util::CondVar ready_cv_;
  Table<OracleEntry> oracles_ MWR_GUARDED_BY(mutex_);
  Table<PoolEntry> pools_ MWR_GUARDED_BY(mutex_);
  Stats stats_ MWR_GUARDED_BY(mutex_);
  std::uint64_t use_clock_ MWR_GUARDED_BY(mutex_) = 0;

  obs::Counter* oracle_builds_;
  obs::Counter* oracle_hits_;
  obs::Counter* oracle_cold_builds_;
  obs::Counter* pool_builds_;
  obs::Counter* pool_hits_;
  obs::Counter* evictions_;
};

}  // namespace mwr::apr
