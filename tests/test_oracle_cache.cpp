// Oracle memoization golden tests: the cached TestOracle must be
// bit-identical to the uncached reference path on every query — including
// the localized-relevance branch and swap-orientation corner — and its
// cache traffic must surface through the obs counters / metrics JSON.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"
#include "obs/registry.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec cache_spec(bool localized) {
  datasets::ScenarioSpec spec;
  spec.name = localized ? "cache-localized" : "cache-global";
  spec.options = 500;
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

TEST(OracleCache, EvaluateBitIdenticalOnRandomPatches) {
  for (const bool localized : {false, true}) {
    const ProgramModel program(cache_spec(localized));
    const TestOracle uncached(program, /*enable_cache=*/false);
    const TestOracle cached(program, /*enable_cache=*/true);
    ASSERT_FALSE(uncached.cache_enabled());
    ASSERT_TRUE(cached.cache_enabled());
    util::RngStream rng(9);
    for (int trial = 0; trial < 300; ++trial) {
      const auto patch =
          random_patch(program, 1 + rng.uniform_index(12), rng);
      const Evaluation a = uncached.evaluate(patch);
      const Evaluation b = cached.evaluate(patch);
      EXPECT_EQ(a, b) << "localized=" << localized << " trial=" << trial;
      // Repeat once more: the second evaluation is served from the cache.
      EXPECT_EQ(a, cached.evaluate(patch));
    }
  }
}

TEST(OracleCache, PrimedPooledProbesBitIdentical) {
  const ProgramModel program(cache_spec(true));
  const TestOracle uncached(program, false);
  const TestOracle cached(program, true);

  PoolConfig config;
  config.target_size = 300;
  config.seed = 5;
  const auto pool = MutationPool::precompute(uncached, config);
  ASSERT_GT(pool.size(), 0u);
  cached.prime_cache(pool.mutations());

  util::RngStream rng(21);
  for (int trial = 0; trial < 400; ++trial) {
    const auto patch =
        sample_from_pool(pool.mutations(), 2 + rng.uniform_index(30), rng);
    EXPECT_EQ(uncached.evaluate(patch), cached.evaluate(patch));
  }
}

TEST(OracleCache, WaveEvaluatePooledBitIdentical) {
  // The probe wave's eager fast path (prime_wave + evaluate_pooled) must
  // agree bit-for-bit with the uncached reference on index-sampled pool
  // patches — including the localized-coverage branch — and the indexed
  // sampler must consume the RNG exactly like sample_from_pool.
  for (const bool localized : {false, true}) {
    const ProgramModel program(cache_spec(localized));
    const TestOracle uncached(program, false);
    const TestOracle waved(program, true);

    PoolConfig config;
    config.target_size = 300;
    config.seed = 5;
    const auto pool = MutationPool::precompute(uncached, config);
    ASSERT_GT(pool.size(), 0u);
    waved.prime_wave(pool.mutations());
    ASSERT_TRUE(waved.wave_ready());

    util::RngStream rng_ref(33);
    util::RngStream rng_idx(33);
    std::vector<std::uint32_t> indices;
    for (int trial = 0; trial < 400; ++trial) {
      const std::size_t size = 2 + rng_ref.uniform_index(30);
      ASSERT_EQ(size, 2 + rng_idx.uniform_index(30));
      const auto patch = sample_from_pool(pool.mutations(), size, rng_ref);
      sample_from_pool_indexed(pool.size(), size, rng_idx, indices);
      // Indexed draws name the identical canonical patch...
      ASSERT_EQ(patch.size(), indices.size());
      for (std::size_t i = 0; i < indices.size(); ++i) {
        ASSERT_EQ(patch[i], pool.mutations()[indices[i]])
            << "localized=" << localized << " trial=" << trial;
      }
      // ...and both RNG streams stay in lockstep.
      ASSERT_EQ(rng_ref.state(), rng_idx.state());
      EXPECT_EQ(uncached.evaluate(patch), waved.evaluate_pooled(indices))
          << "localized=" << localized << " trial=" << trial;
    }
  }
}

TEST(OracleCache, MixedPooledAndForeignMutationsBitIdentical) {
  const ProgramModel program(cache_spec(false));
  const TestOracle uncached(program, false);
  const TestOracle cached(program, true);
  PoolConfig config;
  config.target_size = 100;
  config.seed = 8;
  const auto pool = MutationPool::precompute(uncached, config);
  cached.prime_cache(pool.mutations());

  util::RngStream rng(33);
  for (int trial = 0; trial < 300; ++trial) {
    // Half pooled, half fresh random mutations (some unsafe, none primed).
    Patch patch = sample_from_pool(pool.mutations(), 6, rng);
    for (int extra = 0; extra < 6; ++extra) {
      patch.push_back(random_mutation(program, rng));
    }
    canonicalize(patch);
    EXPECT_EQ(uncached.evaluate(patch), cached.evaluate(patch));
  }
}

TEST(OracleCache, SwapOrientationDoesNotLeakThroughTheCache) {
  // A swap's key orders its operands, but localized relevance depends on
  // the concrete target.  Cache one orientation, query the other: both
  // oracles must still agree on both orientations.
  const ProgramModel program(cache_spec(true));
  const TestOracle uncached(program, false);
  const TestOracle cached(program, true);
  const auto& covered = program.covered_statements();
  ASSERT_GE(covered.size(), 2u);
  util::RngStream rng(55);
  int disagreements = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const auto a = covered[rng.uniform_index(covered.size())];
    auto b = covered[rng.uniform_index(covered.size())];
    if (a == b) continue;
    const Mutation fwd{MutationKind::kSwap, a, b};
    const Mutation rev{MutationKind::kSwap, b, a};
    ASSERT_EQ(fwd.key(), rev.key());
    // Populate the cache with fwd first, then query rev.
    EXPECT_EQ(cached.is_repair_relevant(fwd), uncached.is_repair_relevant(fwd));
    EXPECT_EQ(cached.is_repair_relevant(rev), uncached.is_repair_relevant(rev));
    EXPECT_EQ(cached.is_safe(fwd), uncached.is_safe(fwd));
    if (uncached.is_repair_relevant(fwd) != uncached.is_repair_relevant(rev)) {
      ++disagreements;
    }
  }
  // The corner this guards: the two orientations genuinely can differ, so
  // a cache keyed only by the mutation key would be wrong.
  EXPECT_GT(disagreements, 0);
}

TEST(OracleCache, CountersTrackHitsAndAppearInMetricsJson) {
  auto& metrics = obs::MetricsRegistry::global();
  const std::uint64_t hits_before =
      metrics.counter("oracle.mask_cache_hits").value();

  const ProgramModel program(cache_spec(false));
  const TestOracle cached(program, true);
  PoolConfig config;
  config.target_size = 120;
  config.seed = 13;
  const auto pool = MutationPool::precompute(cached, config);  // primes
  util::RngStream rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto patch = sample_from_pool(pool.mutations(), 8, rng);
    (void)cached.evaluate(patch);
  }
  const std::uint64_t hits_after =
      metrics.counter("oracle.mask_cache_hits").value();
  // 50 probes x 8 pooled mutations, all primed -> at least 400 mask hits.
  EXPECT_GE(hits_after - hits_before, 400u);
  // Warm pair probes must also show up.
  EXPECT_GT(metrics.counter("oracle.pair_cache_hits").value() +
                metrics.counter("oracle.pair_cache_misses").value(),
            0u);

  const std::string json = metrics.to_json().dump(/*indent=*/2);
  EXPECT_NE(json.find("oracle.mask_cache_hits"), std::string::npos);
  EXPECT_NE(json.find("oracle.mask_cache_misses"), std::string::npos);
  EXPECT_NE(json.find("oracle.pair_cache_hits"), std::string::npos);
}

TEST(OracleCache, SuiteRunAccountingUnchangedByCaching) {
  // Caching skips re-hashing, never suite-run accounting: both oracles
  // count one run per evaluate().
  const ProgramModel program(cache_spec(false));
  const TestOracle uncached(program, false);
  const TestOracle cached(program, true);
  util::RngStream rng(4);
  for (int trial = 0; trial < 25; ++trial) {
    const auto patch = random_patch(program, 5, rng);
    (void)uncached.evaluate(patch);
    (void)cached.evaluate(patch);
  }
  EXPECT_EQ(uncached.suite_runs(), 25u);
  EXPECT_EQ(cached.suite_runs(), 25u);
}

TEST(OracleCache, ParallelRevalidateMatchesSerial) {
  // Survivors of a pool revalidation are identical for any thread count.
  auto base = cache_spec(false);
  const ProgramModel program(base);
  const TestOracle oracle(program, true);
  PoolConfig config;
  config.target_size = 200;
  config.seed = 3;
  const auto pool = MutationPool::precompute(oracle, config);

  // Revalidate against a *grown* suite so some members actually drop.
  auto grown = base;
  grown.tests = base.tests + 8;
  const ProgramModel grown_program(grown);
  const TestOracle grown_oracle(grown_program, true);

  MutationPool serial = pool;
  MutationPool parallel = pool;
  const std::size_t dropped_serial = serial.revalidate(grown_oracle, 1);
  const std::size_t dropped_parallel = parallel.revalidate(grown_oracle, 4);
  EXPECT_EQ(dropped_serial, dropped_parallel);
  EXPECT_GT(dropped_serial, 0u);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial.mutations()[i], parallel.mutations()[i]);
  }
}

}  // namespace
}  // namespace mwr::apr
