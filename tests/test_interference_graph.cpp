// Interference-graph tests: one graph per program, hashed over the base
// pool, must give the probe wave of every (bug, suite) oracle the uncached
// reference's answers — in the oracle, a single-shot session, and a
// campaign.  evaluate() on a wave oracle must route every patch shape to
// the path that gives those answers, from one thread or several.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "apr/campaign.hpp"
#include "apr/mutation_pool.hpp"
#include "apr/mwrepair.hpp"
#include "apr/repair_session.hpp"
#include "apr/test_oracle.hpp"
#include "datasets/scenario.hpp"
#include "obs/registry.hpp"
#include "parallel/superstep.hpp"

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

datasets::ScenarioSpec easy_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "easy";
  spec.statements = 2000;
  spec.tests = 15;
  spec.coverage = 0.7;
  spec.safe_rate = 0.5;
  spec.repair_rate = 0.02;
  spec.optimum = 30;
  spec.min_repair_edits = 1;
  spec.seed = 51;
  return spec;
}

datasets::ScenarioSpec toy_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "campaign-toy";
  spec.statements = 2000;
  spec.tests = 12;
  spec.coverage = 0.7;
  spec.safe_rate = 0.55;
  spec.repair_rate = 0.02;
  spec.optimum = 30;
  spec.min_repair_edits = 1;
  spec.seed = 71;
  return spec;
}

CampaignConfig fast_config() {
  CampaignConfig config;
  config.bugs = 4;
  config.pool.target_size = 1500;
  config.pool.seed = 1;
  config.repair.agents = 32;
  config.repair.max_iterations = 200;
  config.repair.seed = 2;
  return config;
}

TEST(OracleCache, OneInterferenceGraphServesEveryBugAndSuite) {
  // Interference is a program property: the graph of the base pool must
  // give the wave of every (bug, suite) oracle of the program — over the
  // pool or a revalidated subset of it — the uncached reference's answers.
  for (const bool localized : {false, true}) {
    const datasets::ScenarioSpec base = cache_spec(localized);
    const ProgramModel base_program(base);
    const TestOracle base_oracle(base_program, false);
    PoolConfig config;
    config.target_size = 300;
    config.seed = 5;
    const auto pool = MutationPool::precompute(base_oracle, config);
    const InterferenceGraph graph =
        base_oracle.interference_graph(pool.mutations());
    ASSERT_EQ(graph.size(), pool.size());
    ASSERT_FALSE(graph.partners.empty());

    for (const std::size_t grown : {0u, 8u}) {
      for (const std::size_t bug : {0u, 3u}) {
        datasets::ScenarioSpec spec = base;
        spec.bug_id = bug;
        spec.tests = base.tests + grown;
        const ProgramModel program(spec);
        const TestOracle uncached(program, false);
        const TestOracle waved(program, true);
        MutationPool working = pool;
        if (grown > 0) {
          ASSERT_GT(working.revalidate(uncached), 0u);
        }
        waved.prime_wave(working.mutations(), &graph);
        ASSERT_TRUE(waved.wave_ready());

        util::RngStream rng(40 + bug + grown);
        std::vector<std::uint32_t> indices;
        for (int trial = 0; trial < 200; ++trial) {
          sample_from_pool_indexed(working.size(), 2 + rng.uniform_index(40),
                                   rng, indices);
          Patch patch;
          for (const std::uint32_t i : indices)
            patch.push_back(working.mutations()[i]);
          EXPECT_EQ(uncached.evaluate(patch), waved.evaluate_pooled(indices))
              << "localized=" << localized << " grown=" << grown
              << " bug=" << bug << " trial=" << trial;
        }
      }
    }
  }
}

TEST(OracleCache, InterferenceGraphIsTheSameForAnyWorkerCount) {
  const ProgramModel program(cache_spec(false));
  const TestOracle oracle(program, false);
  PoolConfig config;
  config.target_size = 300;
  config.seed = 5;
  const auto pool = MutationPool::precompute(oracle, config);
  const InterferenceGraph serial = oracle.interference_graph(pool.mutations());
  for (const std::size_t threads : {2u, 3u}) {
    parallel::SuperstepEngine workers(
        1, parallel::SuperstepEngine::Config{threads});
    const InterferenceGraph split =
        oracle.interference_graph(pool.mutations(), &workers);
    EXPECT_EQ(split.offsets, serial.offsets) << threads;
    EXPECT_EQ(split.partners, serial.partners) << threads;
    EXPECT_EQ(split.hashes, serial.hashes) << threads;
  }
}

TEST(OracleCache, InterferenceGraphIsTheSameOnEnginesOfOneToFourWorkers) {
  // The build splits its rows over every participant of the sweep (the
  // workers plus the caller), so small pools leave blocks empty; the graph
  // must not notice, from one inline worker up to four.
  const ProgramModel program(cache_spec(false));
  const TestOracle oracle(program, false);
  PoolConfig config;
  config.target_size = 300;
  config.seed = 5;
  const auto pool = MutationPool::precompute(oracle, config);
  for (const std::size_t n :
       {std::size_t{2}, std::size_t{3}, std::size_t{5}, pool.size()}) {
    const std::span<const Mutation> members = pool.mutations().first(n);
    const InterferenceGraph serial = oracle.interference_graph(members);
    for (std::size_t workers = 1; workers <= 4; ++workers) {
      parallel::SuperstepEngine engine(
          1, parallel::SuperstepEngine::Config{workers});
      const InterferenceGraph split =
          oracle.interference_graph(members, &engine);
      EXPECT_EQ(split.keys, serial.keys) << n << " " << workers;
      EXPECT_EQ(split.offsets, serial.offsets) << n << " " << workers;
      EXPECT_EQ(split.partners, serial.partners) << n << " " << workers;
      EXPECT_EQ(split.hashes, serial.hashes) << n << " " << workers;
    }
  }
}

TEST(OracleCache, IntegerInterferenceThresholdAgreesWithHashToUnit) {
  // interferes() and the graph build compare h >> 11 against
  // unit_threshold(q); that must be hash_to_unit(h) < q for every h.
  // Probed at the rates' edges and at exact multiples of 2^-53 with their
  // neighbours, taking h on each side of every boundary.
  std::vector<double> rates = {0.0, 1.0, 0x1.0p-53, 0.5, 0.25, 0.1, 0.03};
  for (const std::uint64_t k :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{12345}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 52) + 1, (std::uint64_t{1} << 53) - 1}) {
    rates.push_back(static_cast<double>(k) * 0x1.0p-53);
  }
  const std::size_t base = rates.size();
  for (std::size_t r = 0; r < base; ++r) {
    rates.push_back(std::nextafter(rates[r], 0.0));
    rates.push_back(std::nextafter(rates[r], 2.0));
  }
  rates.push_back(-0.5);
  rates.push_back(1.5);
  constexpr std::uint64_t kTop = std::uint64_t{1} << 53;  // h >> 11 < kTop
  for (const double q : rates) {
    const std::uint64_t t = unit_threshold(q);
    ASSERT_LE(t, kTop) << q;
    const std::uint64_t below = t == 0 ? 0 : t - 1;
    for (const std::uint64_t m : {below, t, t + 1, std::uint64_t{0}, kTop - 1}) {
      if (m >= kTop) continue;
      for (const std::uint64_t low : {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
        const std::uint64_t h = (m << 11) | low;
        EXPECT_EQ((h >> 11) < t, hash_to_unit(h) < q)
            << "q=" << q << " h=" << h;
      }
    }
  }
}

TEST(OracleCache, StableHashStateSplitsByPart) {
  // The graph build hashes each pair from a lo term and a hi term computed
  // once per key (TestOracle::pair_lo_term / pair_hi_term); that equals
  // stable_hash only because its input state splits by part.
  util::SplitMix64 gen(99);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t seed = gen.next();
    const std::uint64_t a = gen.next();
    const std::uint64_t b = gen.next();
    const std::uint64_t c = gen.next();
    EXPECT_EQ(stable_hash(seed, a, b, c),
              stable_hash_of_state(stable_hash_state(seed, a, b) ^
                                   stable_hash_state(0, 0, 0, c)));
  }
}

TEST(OracleCache, PrimeWaveRejectsAForeignOrPartialGraph) {
  const ProgramModel program(cache_spec(false));
  const TestOracle oracle(program, true);
  PoolConfig config;
  config.target_size = 100;
  config.seed = 8;
  const auto pool = MutationPool::precompute(oracle, config);

  // A graph over half the pool cannot name the other half's pairs.
  const std::vector<Mutation> half(
      pool.mutations().begin(),
      pool.mutations().begin() +
          static_cast<std::ptrdiff_t>(pool.size() / 2));
  const InterferenceGraph partial = oracle.interference_graph(half);
  EXPECT_THROW(oracle.prime_wave(pool.mutations(), &partial),
               std::invalid_argument);

  // Another program's pairs interfere differently.
  datasets::ScenarioSpec other = cache_spec(false);
  other.seed += 1;
  const ProgramModel other_program(other);
  const TestOracle other_oracle(other_program, false);
  const InterferenceGraph foreign =
      other_oracle.interference_graph(pool.mutations());
  EXPECT_THROW(oracle.prime_wave(pool.mutations(), &foreign),
               std::invalid_argument);
  EXPECT_FALSE(oracle.wave_ready());

  // The graph of a superset is fine: the wave takes the pooled members.
  const InterferenceGraph full = oracle.interference_graph(pool.mutations());
  oracle.prime_wave(half, &full);
  EXPECT_TRUE(oracle.wave_ready());
}

// Fisher-Yates over the repo's RngStream, so shuffled patches are the
// same on every standard library.
void shuffle_patch(Patch& patch, util::RngStream& rng) {
  for (std::size_t i = patch.size(); i > 1; --i) {
    std::swap(patch[i - 1], patch[rng.uniform_index(i)]);
  }
}

TEST(OracleCache, EvaluateRoutesPooledPatchesThroughTheWave) {
  // evaluate() on a wave-ready oracle must give the uncached reference's
  // answer for every patch shape: through the wave when each member is a
  // distinct pool member, by hashing pairs otherwise.
  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& pair_hits = metrics.counter("oracle.pair_cache_hits");
  obs::Counter& pair_misses = metrics.counter("oracle.pair_cache_misses");
  for (const bool localized : {false, true}) {
    const ProgramModel program(cache_spec(localized));
    const TestOracle uncached(program, false);
    const TestOracle waved(program, true);
    PoolConfig config;
    config.target_size = 300;
    config.seed = 5;
    const auto pool = MutationPool::precompute(uncached, config);
    waved.prime_wave(pool.mutations());
    ASSERT_TRUE(waved.wave_ready());
    const std::uint64_t runs_before = waved.suite_runs();
    std::uint64_t evaluations = 0;
    const auto expect_reference = [&](const Patch& patch, const char* shape,
                                      int trial) {
      ++evaluations;
      EXPECT_EQ(uncached.evaluate(patch), waved.evaluate(patch))
          << shape << " localized=" << localized << " trial=" << trial;
    };

    util::RngStream rng(61);
    std::vector<Patch> canonical;
    for (int trial = 0; trial < 200; ++trial) {
      canonical.push_back(
          sample_from_pool(pool.mutations(), 2 + rng.uniform_index(30), rng));
    }
    const std::uint64_t hits_before = pair_hits.value();
    const std::uint64_t misses_before = pair_misses.value();
    for (int trial = 0; trial < 200; ++trial) {
      expect_reference(canonical[trial], "canonical", trial);
    }
    EXPECT_GT(pair_hits.value(), hits_before);
    EXPECT_EQ(pair_misses.value(), misses_before);

    // Member order does not matter to the wave...
    for (int trial = 0; trial < 200; ++trial) {
      Patch shuffled = canonical[trial];
      shuffle_patch(shuffled, rng);
      expect_reference(shuffled, "shuffled", trial);
    }
    EXPECT_EQ(pair_misses.value(), misses_before);
    // ...but a repeated member is not a set of pool indices: it takes the
    // reference path, which hashes the member's pair with itself.
    for (int trial = 0; trial < 200; ++trial) {
      Patch duplicated = canonical[trial];
      const Mutation twin = duplicated[rng.uniform_index(duplicated.size())];
      duplicated.push_back(twin);
      shuffle_patch(duplicated, rng);
      expect_reference(duplicated, "duplicated", trial);
    }
    EXPECT_GT(pair_misses.value(), misses_before);

    // A swap whose key is pooled, named with the operands the other way
    // round: the wave's relevance bit belongs to the pooled orientation.
    std::size_t reversed_swaps = 0;
    for (const Mutation& m : pool.mutations()) {
      if (m.kind != MutationKind::kSwap || m.target == m.donor) continue;
      const Mutation reversed{MutationKind::kSwap, m.donor, m.target};
      ASSERT_EQ(reversed.key(), m.key());
      Patch patch = sample_from_pool(pool.mutations(), 6, rng);
      std::erase(patch, m);
      patch.push_back(reversed);
      expect_reference(patch, "reversed-swap",
                       static_cast<int>(reversed_swaps++));
    }
    EXPECT_GT(reversed_swaps, 0u);

    const std::uint64_t mixed_misses_before = pair_misses.value();
    for (int trial = 0; trial < 200; ++trial) {
      Patch patch = sample_from_pool(pool.mutations(), 6, rng);
      for (int extra = 0; extra < 4; ++extra) {
        patch.push_back(random_mutation(program, rng));
      }
      canonicalize(patch);
      expect_reference(patch, "mixed", trial);
    }
    EXPECT_GT(pair_misses.value(), mixed_misses_before);
    // Whichever path it takes, every evaluate() is one suite run.
    EXPECT_EQ(waved.suite_runs() - runs_before, evaluations);
  }
}

TEST(OracleCache, ConcurrentEvaluateOnOneWaveOracle) {
  // One wave oracle shared by four probe threads answers exactly as a
  // serial pass does, on both the wave and the reference path.
  const ProgramModel program(cache_spec(true));
  const TestOracle oracle(program, true);
  PoolConfig config;
  config.target_size = 300;
  config.seed = 5;
  const auto pool = MutationPool::precompute(oracle, config);
  oracle.prime_wave(pool.mutations());
  ASSERT_TRUE(oracle.wave_ready());

  util::RngStream rng(77);
  std::vector<Patch> probes;
  for (int trial = 0; trial < 400; ++trial) {
    Patch patch =
        sample_from_pool(pool.mutations(), 2 + rng.uniform_index(30), rng);
    if (trial % 4 == 1) shuffle_patch(patch, rng);
    if (trial % 4 == 2) {
      patch.push_back(random_mutation(program, rng));
      canonicalize(patch);
    }
    probes.push_back(std::move(patch));
  }
  const std::uint64_t runs_before = oracle.suite_runs();
  std::vector<Evaluation> serial;
  for (const Patch& patch : probes) serial.push_back(oracle.evaluate(patch));

  constexpr std::size_t kThreads = 4;
  std::vector<Evaluation> concurrent(probes.size());
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const std::size_t begin = probes.size() * t / kThreads;
      const std::size_t end = probes.size() * (t + 1) / kThreads;
      for (std::size_t i = begin; i < end; ++i) {
        concurrent[i] = oracle.evaluate(probes[i]);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (std::size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(serial[i], concurrent[i]) << "probe " << i;
  }
  EXPECT_EQ(oracle.suite_runs() - runs_before, 2 * probes.size());
}

TEST(MwRepair, SingleShotSessionsProbeThroughTheWaveBitIdentically) {
  // A session over a primed oracle takes the probe-wave fast path; over
  // the uncached reference oracle it cannot.  Both searches must make
  // the same draws, rewards and outcome.
  const ProgramModel program(easy_spec());
  const TestOracle cached(program);
  const TestOracle reference(program, /*enable_cache=*/false);
  PoolConfig pool_config;
  pool_config.target_size = 500;
  pool_config.seed = 13;
  const auto pool = MutationPool::precompute(reference, pool_config);

  MwRepairConfig config;
  config.agents = 16;
  config.max_iterations = 120;
  config.seed = 14;
  cached.prime_wave(pool.mutations());
  RepairSession waved(config, cached, pool);
  RepairSession lazy(config, reference, pool);
  EXPECT_TRUE(waved.wave_fast_path());
  EXPECT_FALSE(lazy.wave_fast_path());
  while (!waved.step()) {
  }
  while (!lazy.step()) {
  }
  EXPECT_EQ(waved.trajectory_hash(), lazy.trajectory_hash());
  EXPECT_EQ(waved.outcome().repaired, lazy.outcome().repaired);
  EXPECT_EQ(waved.outcome().iterations, lazy.outcome().iterations);
  EXPECT_EQ(waved.outcome().probes, lazy.outcome().probes);
  EXPECT_EQ(waved.outcome().patch, lazy.outcome().patch);
}

TEST(MwRepair, StreamedCyclesPastTheWavePoolMatchTheStagedCalls) {
  // A pool above OracleCache::kMaxWavePool gets no wave: every probe
  // takes the reference evaluation path.  Streamed through an engine of
  // one to four workers, the cycles must make the hand-staged calls'
  // draws, fold and outcome.
  datasets::ScenarioSpec spec = easy_spec();
  spec.statements = 8000;
  spec.repair_rate = 0.001;  // scarce two-edit repairs: several cycles.
  spec.min_repair_edits = 2;
  const ProgramModel program(spec);
  const TestOracle oracle(program);
  PoolConfig pool_config;
  pool_config.target_size = OracleCache::kMaxWavePool + 100;
  pool_config.seed = 13;
  const auto pool = MutationPool::precompute(oracle, pool_config);
  ASSERT_GT(pool.size(), OracleCache::kMaxWavePool);
  oracle.prime_wave(pool.mutations());

  MwRepairConfig config;
  config.agents = 16;
  config.max_iterations = 12;
  config.seed = 14;
  RepairSession staged(config, oracle, pool);
  ASSERT_FALSE(staged.wave_fast_path());
  while (!staged.done()) {
    const std::size_t n = staged.begin_cycle();
    for (std::size_t j = 0; j < n; ++j) staged.evaluate_staged(j);
    (void)staged.finish_cycle();
  }
  ASSERT_GT(staged.outcome().iterations, 1u);
  for (std::size_t workers = 1; workers <= 4; ++workers) {
    parallel::SuperstepEngine engine(
        1, parallel::SuperstepEngine::Config{workers});
    RepairSession streamed(config, oracle, pool);
    while (!streamed.step(&engine)) {
    }
    EXPECT_EQ(streamed.trajectory_hash(), staged.trajectory_hash()) << workers;
    EXPECT_EQ(streamed.outcome().repaired, staged.outcome().repaired);
    EXPECT_EQ(streamed.outcome().iterations, staged.outcome().iterations);
    EXPECT_EQ(streamed.outcome().probes, staged.outcome().probes);
    EXPECT_EQ(streamed.outcome().patch, staged.outcome().patch);
    EXPECT_EQ(streamed.outcome().arm_probabilities,
              staged.outcome().arm_probabilities);
  }
}

TEST(Campaign, OneInterferenceGraphPerCampaignAndAWaveForEveryBug) {
  // Every bug's oracle gets the probe wave, and all of them derive it
  // from the one graph hashed with the campaign's base pool.
  auto& metrics = obs::MetricsRegistry::global();
  obs::Counter& graphs = metrics.counter("oracle.interference_graph_builds");
  obs::Counter& waves = metrics.counter("oracle.wave_builds");
  const std::uint64_t graphs_before = graphs.value();
  const std::uint64_t waves_before = waves.value();
  const auto outcome = run_campaign(toy_spec(), fast_config());
  ASSERT_EQ(outcome.bugs.size(), 4u);
  EXPECT_GT(outcome.bugs.back().maintenance_runs, 0u);  // a grown suite too
  EXPECT_EQ(graphs.value() - graphs_before, 1u);
  EXPECT_EQ(waves.value() - waves_before, 4u);
}

}  // namespace
}  // namespace mwr::apr
