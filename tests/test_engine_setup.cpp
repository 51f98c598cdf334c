// Engine-width set-up: a campaign's phase 1 (precompute, revalidation) and
// each bug's oracle prime run in blocks over the campaign's engine.  The
// pool, the ledger, the cache counters and the probe-wave table must come
// out byte-identical to the inline pass for any worker count, and every
// interfering pair must be stored once, in the row of its lower member.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"
#include "obs/registry.hpp"
#include "parallel/superstep.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec setup_spec(bool localized) {
  datasets::ScenarioSpec spec;
  spec.name = localized ? "setup-localized" : "setup-global";
  spec.statements = 900;
  spec.tests = 24;
  spec.coverage = 0.8;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.04;
  spec.optimum = 20;
  spec.min_repair_edits = 1;
  spec.seed = 314;
  spec.relevance_localized = localized;
  return spec;
}

PoolConfig setup_pool(std::size_t target) {
  PoolConfig config;
  config.target_size = target;
  config.seed = 5;
  return config;
}

/// The inline pass first (null), then engines of one to four workers.
std::vector<std::unique_ptr<parallel::SuperstepEngine>> engines() {
  std::vector<std::unique_ptr<parallel::SuperstepEngine>> out;
  out.push_back(nullptr);
  for (std::size_t w = 1; w <= 4; ++w) {
    out.push_back(std::make_unique<parallel::SuperstepEngine>(
        1, parallel::SuperstepEngine::Config{w}));
  }
  return out;
}

void expect_same_wave(const OracleCache::WaveTable& a,
                      const OracleCache::WaveTable& b, std::size_t engine) {
  EXPECT_EQ(a.pool, b.pool) << engine;
  EXPECT_EQ(a.masks, b.masks) << engine;
  EXPECT_EQ(a.safe_words, b.safe_words) << engine;
  EXPECT_EQ(a.relevant_words, b.relevant_words) << engine;
  EXPECT_EQ(a.partner_offsets, b.partner_offsets) << engine;
  EXPECT_EQ(a.partner_idx, b.partner_idx) << engine;
  EXPECT_EQ(a.partner_masks, b.partner_masks) << engine;
}

TEST(EngineWidthSetup, PrimeWaveTableIsTheSameOnEveryEngine) {
  // With the base pool's graph (as the hub primes a bug's oracle) and
  // without one (as MwRepair::run does), for a base and a grown-suite bug.
  for (const bool localized : {false, true}) {
    const datasets::ScenarioSpec base = setup_spec(localized);
    const ProgramModel base_program(base);
    const TestOracle base_oracle(base_program, false);
    const auto pool = MutationPool::precompute(base_oracle, setup_pool(400));
    const InterferenceGraph graph =
        base_oracle.interference_graph(pool.mutations());
    for (const std::size_t grown : {0u, 6u}) {
      datasets::ScenarioSpec spec = base;
      spec.bug_id = 2;
      spec.tests = base.tests + grown;
      const ProgramModel program(spec);
      for (const bool with_graph : {true, false}) {
        std::unique_ptr<TestOracle> inline_oracle;
        std::size_t e = 0;
        for (const auto& engine : engines()) {
          auto oracle = std::make_unique<TestOracle>(program);
          oracle->prime_wave(pool.mutations(), with_graph ? &graph : nullptr,
                             engine.get());
          ASSERT_TRUE(oracle->wave_ready());
          if (!inline_oracle) {
            inline_oracle = std::move(oracle);
          } else {
            expect_same_wave(inline_oracle->wave(), oracle->wave(), e);
          }
          ++e;
        }
      }
    }
  }
}

TEST(EngineWidthSetup, PrecomputeIsTheSameOnEveryEngine) {
  const ProgramModel program(setup_spec(false));
  const TestOracle reference_oracle(program);
  const auto reference =
      MutationPool::precompute(reference_oracle, setup_pool(500));
  ASSERT_EQ(reference.size(), 500u);
  EXPECT_EQ(reference_oracle.suite_runs(), reference.attempts());
  for (const auto& engine : engines()) {
    const TestOracle oracle(program);
    const auto pool =
        MutationPool::precompute(oracle, setup_pool(500), engine.get());
    ASSERT_EQ(pool.size(), reference.size());
    for (std::size_t i = 0; i < pool.size(); ++i) {
      ASSERT_EQ(pool.mutations()[i], reference.mutations()[i]) << i;
    }
    EXPECT_EQ(pool.attempts(), reference.attempts());
    EXPECT_EQ(oracle.suite_runs(), reference_oracle.suite_runs());
  }
}

TEST(EngineWidthSetup, RevalidateBooksWhatThePerMemberLoopBooks) {
  // Survivors, suite runs and mask-cache counts against the per-member
  // evaluate({&m, 1}) loop revalidation replaced: on a wave-primed bug
  // oracle (the campaign's case), on an unprimed cached one and uncached.
  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& hits = metrics.counter("oracle.mask_cache_hits");
  obs::Counter& misses = metrics.counter("oracle.mask_cache_misses");
  const datasets::ScenarioSpec base = setup_spec(true);
  const ProgramModel base_program(base);
  const TestOracle base_oracle(base_program, false);
  const auto pool = MutationPool::precompute(base_oracle, setup_pool(400));
  datasets::ScenarioSpec grown = base;
  grown.tests = base.tests + 8;
  grown.bug_id = 1;
  const ProgramModel program(grown);

  enum class Kind { kWave, kCold, kUncached };
  for (const Kind kind : {Kind::kWave, Kind::kCold, Kind::kUncached}) {
    const auto make_oracle = [&] {
      auto oracle =
          std::make_unique<TestOracle>(program, kind != Kind::kUncached);
      if (kind == Kind::kWave) oracle->prime_wave(pool.mutations());
      return oracle;
    };
    // The loop revalidate replaced.
    const auto loop_oracle = make_oracle();
    std::vector<Mutation> survivors;
    const std::uint64_t hits0 = hits.value();
    const std::uint64_t misses0 = misses.value();
    for (const Mutation& m : pool.mutations()) {
      const Evaluation e = loop_oracle->evaluate({&m, 1});
      if (e.required_passed == e.required_total) survivors.push_back(m);
    }
    const std::uint64_t loop_hits = hits.value() - hits0;
    const std::uint64_t loop_misses = misses.value() - misses0;
    ASSERT_LT(survivors.size(), pool.size());
    if (kind == Kind::kWave) {
      EXPECT_EQ(loop_hits, pool.size());
    }
    if (kind == Kind::kCold) {
      EXPECT_EQ(loop_misses, pool.size());
    }

    for (const auto& engine : engines()) {
      const auto oracle = make_oracle();
      MutationPool working = pool;
      const std::uint64_t h0 = hits.value();
      const std::uint64_t m0 = misses.value();
      const std::size_t dropped = working.revalidate(*oracle, engine.get());
      EXPECT_EQ(dropped, pool.size() - survivors.size());
      ASSERT_EQ(working.size(), survivors.size());
      for (std::size_t i = 0; i < survivors.size(); ++i) {
        ASSERT_EQ(working.mutations()[i], survivors[i]) << i;
      }
      EXPECT_EQ(oracle->suite_runs(), loop_oracle->suite_runs());
      EXPECT_EQ(hits.value() - h0, loop_hits);
      EXPECT_EQ(misses.value() - m0, loop_misses);
    }
  }
}

TEST(EngineWidthSetup, EveryInterferingPairIsStoredOnceAboveItsRow) {
  // Pooled members are safe under the base suite, so a two-member patch
  // fails exactly when the pair interferes.  The graph row of x must list
  // exactly those y > x, ascending; each wave row the same in wave space.
  const ProgramModel program(setup_spec(false));
  const TestOracle reference(program, false);
  const auto pool = MutationPool::precompute(reference, setup_pool(200));
  const auto members = pool.mutations();
  const std::size_t n = members.size();
  for (const auto& engine : engines()) {
    const InterferenceGraph graph =
        reference.interference_graph(members, engine.get());
    const TestOracle waved(program);
    waved.prime_wave(members, &graph, engine.get());
    ASSERT_TRUE(waved.wave_ready());
    const OracleCache::WaveTable& wave = waved.wave();
    ASSERT_EQ(graph.offsets.size(), n + 1);
    ASSERT_EQ(wave.partner_offsets.size(), n + 1);
    std::size_t pairs = 0;
    for (std::size_t x = 0; x < n; ++x) {
      std::vector<std::uint32_t> expected;
      for (std::size_t y = x + 1; y < n; ++y) {
        const Mutation patch[] = {members[x], members[y]};
        const Evaluation e = reference.evaluate(patch);
        if (e.required_passed != e.required_total)
          expected.push_back(static_cast<std::uint32_t>(y));
      }
      pairs += expected.size();
      const std::vector<std::uint32_t> graph_row(
          graph.partners.begin() + graph.offsets[x],
          graph.partners.begin() + graph.offsets[x + 1]);
      const std::vector<std::uint32_t> wave_row(
          wave.partner_idx.begin() + wave.partner_offsets[x],
          wave.partner_idx.begin() + wave.partner_offsets[x + 1]);
      EXPECT_EQ(graph_row, expected) << "row " << x;
      EXPECT_EQ(wave_row, expected) << "row " << x;
    }
    ASSERT_GT(pairs, 0u);
    EXPECT_EQ(graph.partners.size(), pairs);
    EXPECT_EQ(graph.hashes.size(), pairs);
    EXPECT_EQ(wave.partner_idx.size(), pairs);
    EXPECT_EQ(wave.partner_masks.size(), pairs);
  }
}

}  // namespace
}  // namespace mwr::apr
