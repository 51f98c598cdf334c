// Oracle memoization — the test-result cache that makes repeated probes of
// pooled mutations nearly free (paper §III-C amortization; the same
// technique GenProg-scale APR relies on to stay tractable).
//
// TestOracle's semantics are a pure function of (scenario spec, mutation
// key): the broken-test mask costs T stable hashes per mutation (T up to
// 64) and each unordered pair of safe mutations costs another hash in the
// O(x^2) interference pass.  During MWRepair phase 2 every probe re-draws
// from the same precomputed pool, so the cache is built over that pool
// once, in two layers:
//
//   primed semantics — prime() freezes the pool members' semantics into a
//                      flat array indexed by pool position (key lookup =
//                      one probe of an open-addressing table), read
//                      lock-free;
//   probe-wave table — install_wave() adds the eager evaluation operands
//                      (flat masks, safe / relevant bitsets, the CSR of
//                      interfering safe pairs) for pools of at most
//                      kMaxWavePool members; TestOracle evaluates pooled
//                      patches against it without hashing.
//
// Both layers are written only between phases and read-only while probes
// run, so concurrent evaluate()s share them without locks.  Everything
// cached is deterministic, so cached and uncached evaluation are
// bit-identical — the golden tests in tests/test_oracle_cache.cpp compare
// the two paths directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "apr/mutation.hpp"

namespace mwr::apr {

/// The memoizable per-mutation semantics: which required tests the lone
/// mutation breaks, and whether its relevance hash clears the scenario's
/// relevance rate.  Both are pure functions of the canonical mutation
/// *key* — the localized-relevance coverage predicate is deliberately NOT
/// cached here, because a swap's key orders its operands while coverage
/// depends on the concrete `target`; TestOracle re-checks that O(1)
/// predicate at query time so cached and uncached answers stay
/// bit-identical for either operand orientation.
struct MutationSemantics {
  std::uint64_t broken_mask = 0;
  bool relevance_hash_pass = false;
};

class OracleCache {
 public:
  /// Pools larger than this get no wave table (its eager pair pass
  /// would not amortize); their pooled patches take the reference path.
  static constexpr std::size_t kMaxWavePool = 2048;

  OracleCache() = default;
  OracleCache(const OracleCache&) = delete;
  OracleCache& operator=(const OracleCache&) = delete;

  // --- primed semantics index ---

  /// Freezes the pooled mutations' semantics into the flat index.
  /// `sorted_keys` must be ascending and unique (the MutationPool
  /// invariant) and aligned with `semantics`.  Must not race evaluate():
  /// call between phases, as MutationPool::precompute and MwRepair::run
  /// do.  Subsequent calls with the same keys are no-ops; a different
  /// pool re-primes.
  void prime(std::vector<std::uint64_t> sorted_keys,
             std::vector<MutationSemantics> semantics);

  [[nodiscard]] bool primed() const noexcept {
    return primed_.load(std::memory_order_acquire);
  }

  /// True when the cache is primed with exactly these keys — lets callers
  /// skip recomputing pool semantics before a redundant prime().
  [[nodiscard]] bool primed_with(std::span<const std::uint64_t> keys) const;

  /// Pool index of `key`, or npos when unprimed / not pooled.  One probe
  /// of a flat open-addressing table built by prime() (load factor <= 1/4,
  /// linear probing) — constant time, the per-mutation cost of a warm
  /// phase-2 probe.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  [[nodiscard]] std::size_t pool_index(std::uint64_t key) const {
    if (!primed()) return npos;
    std::size_t slot = mix_key(key) & table_mask_;
    while (true) {
      const IndexEntry& e = index_table_[slot];
      if (e.index_plus_one == 0) return npos;
      if (e.key == key) return e.index_plus_one - 1;
      slot = (slot + 1) & table_mask_;
    }
  }

  [[nodiscard]] const MutationSemantics& pooled(std::size_t index) const {
    return pool_semantics_[index];
  }

  /// Key of the primed pool member at `index`.
  [[nodiscard]] std::uint64_t pool_key(std::size_t index) const {
    return pool_keys_[index];
  }

  // --- probe-wave table (eager per-oracle evaluation operands) ---

  /// Everything a pooled-patch evaluation needs, flattened for the SIMD
  /// probe-mask kernels: per-member broken masks as a gatherable u64 array,
  /// safe / repair-relevant membership as bitsets over pool indices, and
  /// the sparse upper-triangular CSR of interfering safe pairs (partner
  /// index + interference mask per pair, stored once in the row of its
  /// lower member, so row i holds only partners j > i).  Built once by
  /// TestOracle::prime_wave; read lock-free by every evaluate_pooled.
  struct WaveTable {
    std::vector<Mutation> pool;                 ///< the primed members, so
                                                ///< mappers can verify full
                                                ///< equality (not just key).
    std::vector<std::uint64_t> masks;           ///< broken mask per member.
    std::vector<std::uint64_t> safe_words;      ///< bitset: broken_mask == 0.
    std::vector<std::uint64_t> relevant_words;  ///< bitset: counts toward
                                                ///< the repair threshold.
    std::vector<std::uint32_t> partner_offsets; ///< CSR row starts, size n+1.
    std::vector<std::uint32_t> partner_idx;     ///< interfering partner,
                                                ///< above the row's member.
    std::vector<std::uint64_t> partner_masks;   ///< that pair's broken bit.
  };

  /// Installs the wave table for the currently primed pool.  Same no-race
  /// contract as prime(); re-priming with a different pool drops it.
  void install_wave(WaveTable table);

  [[nodiscard]] bool wave_ready() const noexcept {
    return wave_ready_.load(std::memory_order_acquire);
  }

  /// Valid only while wave_ready().
  [[nodiscard]] const WaveTable& wave() const noexcept { return wave_; }

 private:
  /// SplitMix64 finalizer — scrambles the structured mutation-key bits
  /// into table-probe entropy.
  [[nodiscard]] static std::uint64_t mix_key(std::uint64_t k) noexcept {
    k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ULL;
    k = (k ^ (k >> 27)) * 0x94d049bb133111ebULL;
    return k ^ (k >> 31);
  }

  /// Open-addressing slot: index_plus_one == 0 marks an empty slot (a
  /// mutation key itself may legitimately be zero).
  struct IndexEntry {
    std::uint64_t key = 0;
    std::uint32_t index_plus_one = 0;
  };

  std::vector<std::uint64_t> pool_keys_;
  std::vector<MutationSemantics> pool_semantics_;
  std::vector<IndexEntry> index_table_;
  std::size_t table_mask_ = 0;
  std::atomic<bool> primed_{false};

  WaveTable wave_;
  std::atomic<bool> wave_ready_{false};
};

}  // namespace mwr::apr
