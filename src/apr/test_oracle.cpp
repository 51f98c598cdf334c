#include "apr/test_oracle.hpp"

#include "apr/fault_localization.hpp"
#include "obs/registry.hpp"
#include "parallel/blocks.hpp"
#include "parallel/superstep.hpp"
#include "util/simd/weight_kernels.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace mwr::apr {

namespace {
// Domain separators for the scenario's deterministic semantics.
constexpr std::uint64_t kBreakDomain = 0xB4EA;
constexpr std::uint64_t kPairDomain = 0x9A12;
constexpr std::uint64_t kRepairDomain = 0x4E9A;
}  // namespace

TestOracle::TestOracle(const ProgramModel& program, bool enable_cache)
    : program_(&program),
      required_tests_(static_cast<std::uint32_t>(program.spec().tests)),
      interference_(program.spec().interference()),
      interference_threshold_(unit_threshold(interference_)) {
  if (required_tests_ == 0 || required_tests_ > 64)
    throw std::invalid_argument(
        "TestOracle: required tests must be in [1, 64] (bitmask model)");
  // Safety is test-granular: a mutation breaks each test independently with
  // rate b, calibrated so a single mutation passes the whole suite with
  // probability safe_rate: (1-b)^T = safe_rate.  Because b shrinks as the
  // suite grows, a mutation that passed every old test keeps passing them
  // under a grown suite — only the *new* tests can expose it, which is
  // exactly the incremental pool-maintenance story of §III-C.
  break_threshold_ = unit_threshold(
      1.0 - std::pow(program.spec().safe_rate,
                     1.0 / static_cast<double>(required_tests_)));
  const auto& spec = program.spec();
  relevance_threshold_ = unit_threshold(
      spec.relevance_localized
          ? std::min(1.0, spec.repair_rate / kFailingRegionFraction)
          : spec.repair_rate);
  if (enable_cache) {
    cache_ = std::make_unique<OracleCache>();
    auto& metrics = obs::MetricsRegistry::global();
    mask_hits_ = &metrics.counter("oracle.mask_cache_hits");
    mask_misses_ = &metrics.counter("oracle.mask_cache_misses");
    pair_hits_ = &metrics.counter("oracle.pair_cache_hits");
    pair_misses_ = &metrics.counter("oracle.pair_cache_misses");
  }
}

bool TestOracle::is_safe(const Mutation& m) const {
  return semantics_for(m).broken_mask == 0;
}

bool TestOracle::is_repair_relevant(const Mutation& m) const {
  const auto& spec = program_->spec();
  // The coverage predicate depends on the concrete target statement (a
  // swap's key orders its operands), so it is evaluated here rather than
  // cached — one stable hash, same cost as a map probe.
  if (spec.relevance_localized && !failing_test_covers(spec, m.target))
    return false;
  const MutationSemantics s = semantics_for(m);
  return s.broken_mask == 0 && s.relevance_hash_pass;
}

std::uint64_t TestOracle::broken_mask_single(const Mutation& m) const {
  const auto& spec = program_->spec();
  std::uint64_t mask = 0;
  for (std::uint32_t t = 0; t < required_tests_; ++t) {
    // hash_to_unit(h) < the per-test break rate.
    if ((stable_hash(spec.seed, kBreakDomain, m.key(), t) >> 11) <
        break_threshold_) {
      mask |= (std::uint64_t{1} << t);
    }
  }
  return mask;
}

MutationSemantics TestOracle::compute_semantics(const Mutation& m) const {
  const auto& spec = program_->spec();
  MutationSemantics s;
  s.broken_mask = broken_mask_single(m);
  s.relevance_hash_pass =
      (stable_hash(spec.seed, kRepairDomain ^ (spec.bug_id << 8), m.key()) >>
       11) < relevance_threshold_;  // hash_to_unit(h) < the relevance rate
  return s;
}

MutationSemantics TestOracle::semantics_for(const Mutation& m) const {
  if (!cache_) return compute_semantics(m);
  const std::size_t idx = cache_->pool_index(m.key());
  if (idx != OracleCache::npos) {
    mask_hits_->add(1);
    return cache_->pooled(idx);
  }
  mask_misses_->add(1);
  return compute_semantics(m);
}

bool TestOracle::passes_alone(const Mutation& m, ProbeTally& tally) const {
  // evaluate({&m, 1}) on either path: one member, so no pair, and the
  // verdict is its broken mask alone.  The wave's mask of a pooled member
  // is its primed one, and both paths book a pooled member as a mask hit.
  ++tally.runs;
  if (!cache_) return broken_mask_single(m) == 0;
  const std::size_t idx = cache_->pool_index(m.key());
  if (idx != OracleCache::npos) {
    ++tally.mask_hits;
    return cache_->pooled(idx).broken_mask == 0;
  }
  ++tally.mask_misses;
  return broken_mask_single(m) == 0;
}

std::uint64_t TestOracle::pair_lo_term(std::uint64_t lo) const noexcept {
  return stable_hash_state(program_->spec().seed, kPairDomain, lo);
}

std::uint64_t TestOracle::pair_interference_mask(std::uint64_t lo,
                                                 std::uint64_t hi) const {
  const std::uint64_t h = pair_hash(lo, hi);
  return interferes(h) ? interference_test_bit(h) : 0;
}

Evaluation TestOracle::evaluate(std::span<const Mutation> patch) const {
  // Wave path: every member is a distinct wave-pool member, so the patch
  // is a set of pool indices.  Per-thread scratch: evaluate() runs
  // millions of times from the engine's probe sweeps.
  if (wave_ready()) {
    thread_local std::vector<std::uint32_t> indices;
    indices.clear();
    for (const Mutation& m : patch) {
      const std::size_t idx = wave_index_of(m);
      if (idx == OracleCache::npos) break;
      indices.push_back(static_cast<std::uint32_t>(idx));
    }
    if (indices.size() == patch.size()) {
      std::sort(indices.begin(), indices.end());
      if (std::adjacent_find(indices.begin(), indices.end()) ==
          indices.end()) {
        return evaluate_pooled(indices);
      }
    }
  }

  // Reference path: each member's semantics from the primed index when
  // pooled, computed otherwise; then every pair of safe members hashed
  // (Fig 4a's mechanism).  Counters are accumulated in locals and flushed
  // once per call.
  suite_runs_.fetch_add(1, std::memory_order_relaxed);
  const auto& spec = program_->spec();
  thread_local std::vector<std::uint64_t> safe_keys;
  safe_keys.clear();
  std::uint64_t broken = 0;
  std::size_t relevant = 0;
  std::uint64_t mask_hits = 0;
  for (const Mutation& m : patch) {
    const std::size_t idx =
        cache_ ? cache_->pool_index(m.key()) : OracleCache::npos;
    MutationSemantics s;
    if (idx != OracleCache::npos) {
      s = cache_->pooled(idx);
      ++mask_hits;
    } else {
      s = compute_semantics(m);
    }
    broken |= s.broken_mask;
    if (s.broken_mask != 0) continue;
    safe_keys.push_back(m.key());
    if (s.relevance_hash_pass &&
        (!spec.relevance_localized || failing_test_covers(spec, m.target))) {
      ++relevant;
    }
  }
  for (std::size_t i = 0; i < safe_keys.size(); ++i) {
    for (std::size_t j = i + 1; j < safe_keys.size(); ++j) {
      broken |= pair_interference_mask(std::min(safe_keys[i], safe_keys[j]),
                                        std::max(safe_keys[i], safe_keys[j]));
    }
  }
  if (cache_) {
    const std::size_t n_safe = safe_keys.size();
    if (mask_hits) mask_hits_->add(mask_hits);
    if (patch.size() > mask_hits) mask_misses_->add(patch.size() - mask_hits);
    if (n_safe >= 2) pair_misses_->add(n_safe * (n_safe - 1) / 2);
  }

  Evaluation result;
  result.required_total = required_tests_;
  result.required_passed =
      required_tests_ - static_cast<std::uint32_t>(std::popcount(broken));
  result.bug_test_passed =
      relevant >= spec.min_repair_edits && spec.min_repair_edits > 0;
  return result;
}

Evaluation TestOracle::evaluate_pooled(
    std::span<const std::uint32_t> pool_indices) const {
  ProbeTally tally;
  const Evaluation result = evaluate_pooled(pool_indices, tally);
  book(tally);
  return result;
}

Evaluation TestOracle::evaluate_pooled(
    std::span<const std::uint32_t> pool_indices, ProbeTally& tally) const {
  const auto& spec = program_->spec();
  const OracleCache::WaveTable& wave = cache_->wave();
  const util::simd::WeightKernels& kernels = util::simd::active();

  // Per-member breakage is one gather-OR over the flat mask array; safe
  // and relevant counts are bitset intersections against the patch's
  // pool-membership bitmap.  All integer ops — bit-identical to the
  // member loop of evaluate() by construction.
  std::uint64_t broken = kernels.mask_or_gather(
      wave.masks.data(), pool_indices.data(), pool_indices.size());

  // The wave never exceeds kMaxWavePool members, so the bitmap fits on
  // the stack.
  static_assert(OracleCache::kMaxWavePool <= 2048);
  constexpr std::size_t kMaxWords = OracleCache::kMaxWavePool / 64;
  std::array<std::uint64_t, kMaxWords> member_words;
  const std::size_t words = wave.safe_words.size();
  std::fill_n(member_words.begin(), words, std::uint64_t{0});
  for (const std::uint32_t i : pool_indices) {
    member_words[i >> 6] |= std::uint64_t{1} << (i & 63);
  }
  const std::size_t n_safe = kernels.popcount_and(
      wave.safe_words.data(), member_words.data(), words);
  const std::size_t relevant = kernels.popcount_and(
      wave.relevant_words.data(), member_words.data(), words);

  // Pairwise interference: walk each safe member's precomputed partner
  // row and OR the masks of partners that are also in the patch — masked
  // by the partner's membership bit, not branched on, since membership is
  // a coin flip the predictor cannot learn.  The CSR is upper-triangular
  // (row i holds only partners j > i), so every interfering pair of the
  // patch is visited once, from its lower member.
  for (const std::uint32_t i : pool_indices) {
    if (((wave.safe_words[i >> 6] >> (i & 63)) & 1) == 0) continue;
    const std::uint32_t end = wave.partner_offsets[i + 1];
    for (std::uint32_t o = wave.partner_offsets[i]; o < end; ++o) {
      const std::uint32_t j = wave.partner_idx[o];
      const std::uint64_t member = (member_words[j >> 6] >> (j & 63)) & 1;
      broken |= wave.partner_masks[o] & (std::uint64_t{0} - member);
    }
  }

  // Book the exact cache traffic a fully warm evaluate() of this patch
  // would: one mask hit per member, one pair hit per safe pair.
  ++tally.runs;
  tally.mask_hits += pool_indices.size();
  if (n_safe >= 2) tally.pair_hits += n_safe * (n_safe - 1) / 2;

  Evaluation result;
  result.required_total = required_tests_;
  result.required_passed =
      required_tests_ - static_cast<std::uint32_t>(std::popcount(broken));
  result.bug_test_passed =
      relevant >= spec.min_repair_edits && spec.min_repair_edits > 0;
  return result;
}

void TestOracle::book(ProbeTally& tally) const {
  if (tally.runs != 0)
    suite_runs_.fetch_add(tally.runs, std::memory_order_relaxed);
  if (tally.mask_hits != 0) mask_hits_->add(tally.mask_hits);
  if (tally.mask_misses != 0) mask_misses_->add(tally.mask_misses);
  if (tally.pair_hits != 0) pair_hits_->add(tally.pair_hits);
  tally = ProbeTally{};
}

InterferenceGraph TestOracle::interference_graph(
    std::span<const Mutation> pool, parallel::SuperstepEngine* workers) const {
  InterferenceGraph graph;
  graph.seed = program_->spec().seed;
  graph.interference = interference_;
  const std::size_t n = pool.size();
  graph.keys.reserve(n);
  for (const Mutation& m : pool) {
    if (!graph.keys.empty() && graph.keys.back() >= m.key()) {
      throw std::invalid_argument(
          "TestOracle::interference_graph: pool must be key-sorted and "
          "unique");
    }
    graph.keys.push_back(m.key());
  }
  // Every pair hashed once; keys ascend, so (x, y) is already (lo, hi).
  // With workers the rows split into contiguous blocks of about equal pair
  // counts (row x holds n - 1 - x pairs), parallel::block_count of them,
  // so a participant that joins late leaves no large block behind.  Each
  // block keeps its rows' partners in (x, y) order and writes its rows'
  // degrees, so read back in block order the blocks concatenate into the
  // upper-triangular CSR, the same for any worker count.
  struct Block {
    std::vector<std::uint32_t> partners;
    std::vector<std::uint64_t> hashes;
  };
  const std::size_t blocks = parallel::block_count(workers, n);
  std::vector<std::size_t> bounds(blocks + 1, n);
  bounds[0] = 0;
  const std::size_t pairs = n * (n > 0 ? n - 1 : 0) / 2;
  std::size_t row = 0;
  std::size_t pairs_before_row = 0;
  for (std::size_t b = 1; b < blocks; ++b) {
    while (row < n && pairs_before_row < pairs * b / blocks) {
      pairs_before_row += n - 1 - row;
      ++row;
    }
    bounds[b] = row;
  }
  // pair_hash(lo, hi) splits into a lo term and a hi term: each key's two
  // terms are computed once, not once per pair, and interferes() is one
  // integer compare.
  std::vector<std::uint64_t> lo_terms(n);
  std::vector<std::uint64_t> hi_terms(n);
  for (std::size_t i = 0; i < n; ++i) {
    lo_terms[i] = pair_lo_term(graph.keys[i]);
    hi_terms[i] = pair_hi_term(graph.keys[i]);
  }
  graph.offsets.assign(n + 1, 0);
  std::vector<Block> parts(blocks);
  const auto hash_rows = [&](std::size_t b) {
    Block& part = parts[b];
    for (std::size_t x = bounds[b]; x < bounds[b + 1]; ++x) {
      const std::size_t row_start = part.partners.size();
      const std::uint64_t lo_term = lo_terms[x];
      for (std::size_t y = x + 1; y < n; ++y) {
        const std::uint64_t h = stable_hash_of_state(lo_term ^ hi_terms[y]);
        if (!interferes(h)) continue;
        part.partners.push_back(static_cast<std::uint32_t>(y));
        part.hashes.push_back(h);
      }
      graph.offsets[x + 1] =
          static_cast<std::uint32_t>(part.partners.size() - row_start);
    }
  };
  if (blocks > 1) {
    workers->parallel_for(blocks, hash_rows);
  } else {
    hash_rows(0);
  }
  for (std::size_t i = 0; i < n; ++i) graph.offsets[i + 1] += graph.offsets[i];
  graph.partners.reserve(graph.offsets[n]);
  graph.hashes.reserve(graph.offsets[n]);
  for (const Block& part : parts) {
    graph.partners.insert(graph.partners.end(), part.partners.begin(),
                          part.partners.end());
    graph.hashes.insert(graph.hashes.end(), part.hashes.begin(),
                        part.hashes.end());
  }
  obs::MetricsRegistry::global()
      .counter("oracle.interference_graph_builds")
      .add(1);
  return graph;
}

void TestOracle::prime_wave(std::span<const Mutation> pool,
                            const InterferenceGraph* graph,
                            parallel::SuperstepEngine* workers) const {
  if (!cache_ || pool.empty()) return;
  prime_cache(pool, workers);
  if (cache_->wave_ready()) return;  // same pool: prime_cache kept the wave.
  if (pool.size() > OracleCache::kMaxWavePool) return;
  InterferenceGraph own;
  if (graph == nullptr) {
    own = interference_graph(pool, workers);
    graph = &own;
  } else if (graph->seed != program_->spec().seed ||
             graph->interference != interference_) {
    throw std::invalid_argument(
        "TestOracle::prime_wave: interference graph of another program");
  }
  const auto& spec = program_->spec();
  const std::size_t n = pool.size();
  const std::size_t words = (n + 63) / 64;

  // Graph position of every member, and back: both are key-sorted, so one
  // merge walk maps them.
  constexpr std::uint32_t kAbsent = ~std::uint32_t{0};
  std::vector<std::uint32_t> graph_pos(n);
  std::vector<std::uint32_t> wave_pos(graph->size(), kAbsent);
  std::size_t g = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t key = cache_->pool_key(i);
    while (g < graph->size() && graph->keys[g] < key) ++g;
    if (g == graph->size() || graph->keys[g] != key) {
      throw std::invalid_argument(
          "TestOracle::prime_wave: interference graph does not cover the "
          "pool");
    }
    graph_pos[i] = static_cast<std::uint32_t>(g);
    wave_pos[g] = static_cast<std::uint32_t>(i);
  }

  OracleCache::WaveTable wave;
  wave.pool.assign(pool.begin(), pool.end());
  wave.masks.resize(n);
  wave.safe_words.assign(words, 0);
  wave.relevant_words.assign(words, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const MutationSemantics& s = cache_->pooled(i);
    wave.masks[i] = s.broken_mask;
    if (s.broken_mask != 0) continue;
    wave.safe_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    if (s.relevance_hash_pass &&
        (!spec.relevance_localized ||
         failing_test_covers(spec, pool[i].target))) {
      wave.relevant_words[i >> 6] |= std::uint64_t{1} << (i & 63);
    }
  }
  // Each safe member's row: its graph partners that are pooled and safe
  // under this suite, with the test this suite's size makes them break.
  // Graph rows hold only partners above their member, and wave positions
  // keep the graph's key order, so wave rows do too.  The rows are
  // counted, prefix-summed and filled in blocks of members; a block writes
  // only its own members' rows, so the table is the same for any engine.
  const auto safe = [&](std::size_t i) {
    return ((wave.safe_words[i >> 6] >> (i & 63)) & 1) != 0;
  };
  const auto for_each_partner = [&](std::size_t i, auto&& visit) {
    if (!safe(i)) return;
    const std::uint32_t row = graph_pos[i];
    for (std::uint32_t o = graph->offsets[row]; o < graph->offsets[row + 1];
         ++o) {
      const std::uint32_t j = wave_pos[graph->partners[o]];
      if (j != kAbsent && safe(j)) visit(j, graph->hashes[o]);
    }
  };
  wave.partner_offsets.assign(n + 1, 0);
  parallel::for_each_block(
      workers, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::uint32_t degree = 0;
          for_each_partner(i, [&](std::uint32_t, std::uint64_t) { ++degree; });
          wave.partner_offsets[i + 1] = degree;
        }
      });
  for (std::size_t i = 0; i < n; ++i)
    wave.partner_offsets[i + 1] += wave.partner_offsets[i];
  wave.partner_idx.resize(wave.partner_offsets[n]);
  wave.partner_masks.resize(wave.partner_offsets[n]);
  parallel::for_each_block(
      workers, n, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::uint32_t o = wave.partner_offsets[i];
          for_each_partner(i, [&](std::uint32_t j, std::uint64_t h) {
            wave.partner_idx[o] = j;
            wave.partner_masks[o++] = interference_test_bit(h);
          });
        }
      });
  obs::MetricsRegistry::global().counter("oracle.wave_builds").add(1);
  cache_->install_wave(std::move(wave));
}

void TestOracle::prime_cache(std::span<const Mutation> pool,
                             parallel::SuperstepEngine* workers) const {
  if (!cache_ || pool.empty()) return;
  std::vector<std::uint64_t> keys;
  keys.reserve(pool.size());
  for (const Mutation& m : pool) {
    keys.push_back(m.key());
    // Pools are sorted by key and deduplicated (MutationPool invariant);
    // verify monotonicity cheaply so a malformed span cannot corrupt the
    // binary-search fast path.
    if (keys.size() > 1 && keys[keys.size() - 2] >= keys.back()) {
      throw std::invalid_argument(
          "TestOracle::prime_cache: pool must be key-sorted and unique");
    }
  }
  if (cache_->primed_with(keys)) return;
  // Each member's semantics lands at its pool position, whichever block
  // computed it.
  std::vector<MutationSemantics> semantics(pool.size());
  parallel::for_each_block(
      workers, pool.size(), [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i)
          semantics[i] = compute_semantics(pool[i]);
      });
  cache_->prime(std::move(keys), std::move(semantics));
}

}  // namespace mwr::apr
