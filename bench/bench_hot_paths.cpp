// Hot-path acceleration, quantified — before/after ns-per-op for the three
// optimizations this repository layers onto the paper's algorithms:
//
//   sampler       — one weighted draw from k = 2^14 options: the linear
//                   RngStream::weighted_choice scan vs the Fenwick-tree
//                   binary descent (util::FenwickSampler).
//   oracle        — one MWRepair phase-2 probe (evaluate() of a pooled
//                   32-edit patch): uncached re-hashing vs the oracle's
//                   probe wave (primed semantics + interference CSR).
//   table2_cycle  — one full Standard-MWU bandit cycle at Table II scale
//                   (k = 2^14, n = 64 agents): per-agent linear scans vs
//                   the sampler-backed StandardMwu::sample.
//   slate_cycle   — one full Slate-MWU cycle as Table II runs it:
//                   replications 0-19 of Slate on random256 and
//                   unimodal256 (k = 256, gamma = 0.05, slate size 13,
//                   BernoulliOracle rewards, the iteration cap), seeded
//                   as run_evaluation seeds them: the capping fixpoint
//                   that allocates and re-walks all k entries every round
//                   vs SlateMwu::sample's allocation-free one-pass cap.
//                   The bench also prints the share of cap calls that cap
//                   more than four entries, the ones the one-pass cap
//                   hands to its fixpoint tail.
//
// Plus one row per SoA weight kernel (DESIGN.md §12), measuring the scalar
// implementation against the runtime-dispatched one over the same k-element
// arrays — on a non-AVX2 machine the two coincide and the row reports ~1x:
//
//   kernel_update       — pow_update: the sparse bandit reward pass.
//   kernel_normalize    — fenwick_rebuild: the fused renormalize + tree
//                         reconstruction + total fold.
//   kernel_materialize  — materialize_affine: probabilities from weights.
//
// Results are emitted both as a human-readable table and as machine-
// readable JSON (--json, default BENCH_hot_paths.json) with the fixed
// schema "mwr-bench-hot-paths-v2"; CI's bench-smoke job gates on that
// file via .github/check_bench.py (speedup floors + absolute-regression
// bound against the committed baseline).  --repeat N runs every section N
// times and reports the median of each timing, squeezing scheduler noise
// out of the committed baselines.
//
// Both sides of every comparison compute the same values — each section
// asserts result equivalence before timing is trusted, and accumulator
// sums are folded into the JSON so the optimizer cannot delete the loops.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "apr/mutation_pool.hpp"
#include "apr/test_oracle.hpp"
#include "bench_common.hpp"
#include "core/option_set.hpp"
#include "core/slate_mwu.hpp"
#include "core/slate_projection.hpp"
#include "core/standard_mwu.hpp"
#include "costmodel/evaluation.hpp"
#include "datasets/scenario.hpp"
#include "datasets/suite.hpp"
#include "obs/serialization.hpp"
#include "util/cli.hpp"
#include "util/fenwick_sampler.hpp"
#include "util/simd/weight_kernels.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace mwr;

struct Section {
  double before_ns = 0.0;
  double after_ns = 0.0;
  std::uint64_t checksum = 0;  ///< anti-DCE accumulator, recorded in JSON.

  [[nodiscard]] double speedup() const {
    return after_ns > 0.0 ? before_ns / after_ns : 0.0;
  }
};

/// Runs `body` `repeat` times and reports the median of each timing.  The
/// checksum must agree across repeats (same seeds, same arithmetic) — any
/// disagreement means a section is nondeterministic and its numbers are
/// meaningless, so that is fatal.
template <typename F>
Section median_of(std::size_t repeat, F&& body) {
  std::vector<Section> runs;
  runs.reserve(repeat);
  for (std::size_t i = 0; i < repeat; ++i) runs.push_back(body());
  for (const Section& s : runs) {
    if (s.checksum != runs.front().checksum) {
      std::cerr << "FATAL: checksum varies across --repeat runs\n";
      std::exit(1);
    }
  }
  const auto median = [&](auto field) {
    std::vector<double> v;
    v.reserve(repeat);
    for (const Section& s : runs) v.push_back(field(s));
    std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
    return v[v.size() / 2];
  };
  Section out;
  out.before_ns = median([](const Section& s) { return s.before_ns; });
  out.after_ns = median([](const Section& s) { return s.after_ns; });
  out.checksum = runs.front().checksum;
  return out;
}

std::uint64_t double_bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

// --- sampler: one weighted draw from k options --------------------------

Section bench_sampler(std::size_t k, std::size_t draws, std::uint64_t seed) {
  util::RngStream init(seed);
  std::vector<double> weights(k);
  for (auto& w : weights) w = 0.25 + init.uniform();

  Section out;
  {
    util::RngStream rng(seed ^ 0x1111);
    const double total =
        [&] {
          double t = 0.0;
          for (const double w : weights) t += w;
          return t;
        }();
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      acc += rng.weighted_choice(weights, total);
    }
    out.before_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(draws);
    out.checksum += acc;
  }
  {
    const util::FenwickSampler sampler(weights);
    util::RngStream rng(seed ^ 0x2222);
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < draws; ++i) {
      acc += sampler.sample(rng);
    }
    out.after_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(draws);
    out.checksum += acc;
  }
  return out;
}

// --- oracle: repeated phase-2 probes over a precomputed pool ------------

Section bench_oracle(std::size_t pool_size, std::size_t patch_size,
                     std::size_t probes, std::uint64_t seed) {
  auto spec = datasets::scenario_by_name("gzip-2009-08-16");
  spec.seed = seed;
  const apr::ProgramModel program(spec);
  const apr::TestOracle uncached(program, /*enable_cache=*/false);
  const apr::TestOracle cached(program, /*enable_cache=*/true);

  apr::PoolConfig pool_config;
  pool_config.target_size = pool_size;
  pool_config.seed = seed;
  const auto pool = apr::MutationPool::precompute(uncached, pool_config);
  cached.prime_wave(pool.mutations());

  // One shared probe schedule (the same patches, in the same order, for
  // both oracles) drawn the way MWRepair phase 2 draws them.
  std::vector<apr::Patch> patches(probes);
  util::RngStream draw(seed ^ 0x3333);
  for (auto& patch : patches) {
    patch = apr::sample_from_pool(pool.mutations(), patch_size, draw);
  }

  // Equivalence first: cached and uncached evaluation must be
  // bit-identical on every probe or the timing below is meaningless.
  for (const auto& patch : patches) {
    if (!(uncached.evaluate(patch) == cached.evaluate(patch))) {
      std::cerr << "FATAL: cached evaluate() diverged from uncached\n";
      std::exit(1);
    }
  }

  Section out;
  {
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (const auto& patch : patches) {
      acc += uncached.evaluate(patch).fitness();
    }
    out.before_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(probes);
    out.checksum += acc;
  }
  {
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (const auto& patch : patches) {
      acc += cached.evaluate(patch).fitness();
    }
    out.after_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(probes);
    out.checksum += acc;
  }
  return out;
}

// --- table2_cycle: full Standard-MWU bandit cycle at k = 2^14 -----------

Section bench_table2_cycle(std::size_t k, std::size_t agents,
                           std::size_t cycles, std::uint64_t seed) {
  core::MwuConfig config;
  config.num_options = k;
  config.num_agents = agents;

  // A fixed synthetic reward rule keeps both runs on identical updates.
  const auto reward = [k](std::size_t option) {
    return option * 2 < k ? 1.0 : 0.0;
  };

  Section out;
  {
    // Before: the historical cycle — per-agent linear scans over the
    // shared weight vector.
    core::StandardMwu mwu(config);
    util::RngStream rng(seed ^ 0x4444);
    std::vector<std::size_t> probes(agents);
    std::vector<double> rewards(agents);
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto& weights = mwu.weights();
      double total = 0.0;
      for (const double w : weights) total += w;
      for (std::size_t j = 0; j < agents; ++j) {
        probes[j] = rng.weighted_choice(weights, total);
        rewards[j] = reward(probes[j]);
      }
      mwu.update(probes, rewards, rng);
      acc += mwu.best_option();
    }
    out.before_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(cycles);
    out.checksum += acc;
  }
  {
    // After: StandardMwu::sample — Fenwick descent per agent, tree rebuilt
    // alongside the per-cycle renormalization.
    core::StandardMwu mwu(config);
    util::RngStream rng(seed ^ 0x4444);
    std::vector<double> rewards(agents);
    util::WallTimer timer;
    std::uint64_t acc = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
      const auto probes = mwu.sample(rng);
      for (std::size_t j = 0; j < agents; ++j) rewards[j] = reward(probes[j]);
      mwu.update(probes, rewards, rng);
      acc += mwu.best_option();
    }
    out.after_ns = timer.elapsed_seconds() * 1e9 / static_cast<double>(cycles);
    out.checksum += acc;
  }
  return out;
}

// --- slate_cycle: Table II's Slate cycle on random256 and unimodal256 ----

constexpr std::size_t kSlateOptions = 256;
constexpr std::size_t kSlateReplications = 20;

// The capping fixpoint before the compacted index list, kept verbatim as
// the reference: q and a bit-packed capped mask are allocated per call,
// and every round re-walks all k entries, capped ones included.  Sets
// `num_capped` to the number of entries it capped.
std::vector<double> full_walk_cap_to_slate_marginals(std::span<const double> p,
                                                     std::size_t slate_size,
                                                     std::size_t& num_capped) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  std::vector<double> q(p.begin(), p.end());
  std::vector<bool> capped(k, false);
  num_capped = 0;
  for (;;) {
    double uncapped_mass = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!capped[i]) uncapped_mass += q[i];
    }
    const double target = s - static_cast<double>(num_capped);
    if (target <= 0.0) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = 0.0;
      }
      break;
    }
    if (uncapped_mass <= 0.0) {
      const double fill = target / static_cast<double>(k - num_capped);
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = fill;
      }
      break;
    }
    const double scale = target / uncapped_mass;
    bool newly_capped = false;
    for (std::size_t i = 0; i < k; ++i) {
      if (capped[i]) continue;
      const double scaled = q[i] * scale;
      if (scaled >= 1.0) {
        q[i] = 1.0;
        capped[i] = true;
        ++num_capped;
        newly_capped = true;
      }
    }
    if (!newly_capped) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] *= scale;
      }
      break;
    }
  }
  return q;
}

/// Cap calls of the slate_cycle row's before side, and how many of them
/// capped more than four entries.
struct SlateTail {
  std::size_t calls = 0;
  std::size_t tail = 0;
};

// Runs replications 0 .. kSlateReplications - 1 of Slate on each option
// set, each seeded and capped as run_evaluation runs it, so the row times
// the cycles Table II's Slate column is made of at k = 256.
Section bench_slate_cycle(std::span<const core::OptionSet> option_sets,
                          std::uint64_t seed, SlateTail& tail) {
  const costmodel::EvalConfig eval;

  // Both sides run the same trajectories; the checksum folds every slate
  // member and the leader after every update.
  const auto side = [&](auto&& sample, double& timing) {
    std::vector<double> rewards;
    std::uint64_t acc = 0;
    std::size_t cycles = 0;
    util::WallTimer timer;
    for (const core::OptionSet& options : option_sets) {
      const core::BernoulliOracle oracle(options);
      core::MwuConfig config = eval.mwu;
      config.num_options = options.size();
      for (std::size_t r = 0; r < kSlateReplications; ++r) {
        core::SlateMwu mwu(config);
        util::RngStream rng(
            seed ^ (0x9e3779b97f4a7c15ULL * (r + 1)) ^
            (static_cast<std::uint64_t>(core::MwuKind::kSlate) << 40) ^
            (options.size() * 0xc2b2ae3dULL));
        for (std::size_t t = 0; t < eval.max_iterations; ++t) {
          const std::vector<std::size_t>& slate = sample(mwu, rng);
          rewards.resize(slate.size());
          oracle.sample_batch(slate, rewards, rng);
          mwu.update(slate, rewards, rng);
          for (const std::size_t option : slate) acc += option;
          acc += mwu.best_option();
          ++cycles;
          if (mwu.converged()) break;
        }
      }
    }
    timing = timer.elapsed_seconds() * 1e9 / static_cast<double>(cycles);
    return acc;
  };

  Section out;
  std::vector<std::size_t> held;
  tail = SlateTail{};
  // Before: the per-call allocating pipeline — probabilities(), the full
  // walk above, then the value-returning systematic_sample.
  const std::uint64_t before = side(
      [&](core::SlateMwu& mwu, util::RngStream& rng)
          -> const std::vector<std::size_t>& {
        const auto p = mwu.probabilities();
        std::size_t num_capped = 0;
        const auto q =
            full_walk_cap_to_slate_marginals(p, mwu.slate_size(), num_capped);
        ++tail.calls;
        if (num_capped > 4) ++tail.tail;
        held = core::systematic_sample(q, mwu.slate_size(), rng);
        return held;
      },
      out.before_ns);
  // After: SlateMwu::sample over its member scratch.
  const std::uint64_t after = side(
      [](core::SlateMwu& mwu, util::RngStream& rng)
          -> const std::vector<std::size_t>& { return mwu.sample(rng); },
      out.after_ns);
  if (before != after) {
    std::cerr << "FATAL: slate_cycle diverged from the full-walk fixpoint\n";
    std::exit(1);
  }
  out.checksum = before;
  return out;
}

// --- per-kernel rows: scalar implementation vs runtime dispatch ---------

namespace simd = util::simd;

struct KernelTables {
  simd::WeightKernels scalar;
  simd::WeightKernels dispatched;
};

KernelTables kernel_tables() {
  // Restore the environment-selected mode afterwards, so running the bench
  // under MWR_FORCE_SCALAR=1 really measures scalar-vs-scalar (~1x rows).
  const char* env = std::getenv("MWR_FORCE_SCALAR");
  const bool env_forced = env != nullptr && env[0] != '\0' &&
                          !(env[0] == '0' && env[1] == '\0');
  simd::force_scalar_for_testing(true);
  const simd::WeightKernels scalar = simd::active();
  simd::force_scalar_for_testing(env_forced);
  const simd::WeightKernels dispatched = simd::active();
  return {scalar, dispatched};
}

std::vector<double> kernel_weights(std::size_t k, std::uint64_t seed) {
  util::RngStream init(seed);
  std::vector<double> weights(k);
  for (auto& w : weights) w = 0.25 + init.uniform();
  return weights;
}

// pow_update over k weights with the bandit's sparse exponent shape
// (~64 touched arms).  Alternating base g and 1/g keeps magnitudes bounded
// across iterations without a per-iteration reset copy.
Section bench_kernel_update(std::size_t k, std::size_t iters,
                            std::uint64_t seed) {
  std::vector<double> exps(k, 0.0);
  util::RngStream pick(seed ^ 0x5555);
  for (int j = 0; j < 64; ++j) {
    exps[static_cast<std::size_t>(pick.uniform() * static_cast<double>(k))] =
        1.0 + static_cast<double>(j % 3);
  }
  const KernelTables tables = kernel_tables();
  const double growth = 1.05;
  const double shrink = 1.0 / growth;
  const auto side = [&](const simd::WeightKernels& kernels, double& timing) {
    std::vector<double> w = kernel_weights(k, seed);
    util::WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      kernels.pow_update(w.data(), exps.data(), k, i % 2 ? shrink : growth);
    }
    timing = timer.elapsed_seconds() * 1e9 / static_cast<double>(iters);
    return double_bits(simd::sum_seq(w.data(), k));
  };
  Section out;
  const std::uint64_t before = side(tables.scalar, out.before_ns);
  const std::uint64_t after = side(tables.dispatched, out.after_ns);
  if (before != after) {
    std::cerr << "FATAL: kernel_update diverged across dispatch\n";
    std::exit(1);
  }
  out.checksum = before;
  return out;
}

// fenwick_rebuild: the fused divide + tree build + total fold.  Divisors
// alternate 2.0 / 0.5 — exact in binary floating point, so the weights
// return to their initial values every other iteration.
Section bench_kernel_normalize(std::size_t k, std::size_t iters,
                               std::uint64_t seed) {
  const KernelTables tables = kernel_tables();
  const auto side = [&](const simd::WeightKernels& kernels, double& timing) {
    std::vector<double> w = kernel_weights(k, seed);
    std::vector<double> tree(k + 1, 0.0);
    double acc = 0.0;
    util::WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      acc += kernels.fenwick_rebuild(w.data(), tree.data(), k,
                                     i % 2 ? 0.5 : 2.0);
    }
    timing = timer.elapsed_seconds() * 1e9 / static_cast<double>(iters);
    return double_bits(acc) ^ double_bits(tree[k]);
  };
  Section out;
  const std::uint64_t before = side(tables.scalar, out.before_ns);
  const std::uint64_t after = side(tables.dispatched, out.after_ns);
  if (before != after) {
    std::cerr << "FATAL: kernel_normalize diverged across dispatch\n";
    std::exit(1);
  }
  out.checksum = before;
  return out;
}

// materialize_affine: the probabilities() pass (dst = w / total).
Section bench_kernel_materialize(std::size_t k, std::size_t iters,
                                 std::uint64_t seed) {
  const KernelTables tables = kernel_tables();
  const auto side = [&](const simd::WeightKernels& kernels, double& timing) {
    const std::vector<double> w = kernel_weights(k, seed);
    const double total = simd::sum_seq(w.data(), k);
    std::vector<double> dst(k, 0.0);
    double acc = 0.0;
    util::WallTimer timer;
    for (std::size_t i = 0; i < iters; ++i) {
      kernels.materialize_affine(dst.data(), w.data(), k, 1.0, total, 0.0);
      acc += dst[i % k];
    }
    timing = timer.elapsed_seconds() * 1e9 / static_cast<double>(iters);
    return double_bits(acc);
  };
  Section out;
  const std::uint64_t before = side(tables.scalar, out.before_ns);
  const std::uint64_t after = side(tables.dispatched, out.after_ns);
  if (before != after) {
    std::cerr << "FATAL: kernel_materialize diverged across dispatch\n";
    std::exit(1);
  }
  out.checksum = before;
  return out;
}

/// One reported row: its JSON key, its table label and its timings.
struct Row {
  const char* name;
  const char* label;
  Section section;
};

obs::JsonValue json_document(std::size_t k, std::size_t agents,
                             std::size_t pool_size, std::size_t patch_size,
                             std::size_t repeat, const std::vector<Row>& rows) {
  using Object = obs::JsonValue::Object;
  Object doc{{"schema", "mwr-bench-hot-paths-v2"},
             {"params", Object{{"options", k},
                               {"agents", agents},
                               {"pool", pool_size},
                               {"patch", patch_size},
                               {"slate_options", kSlateOptions},
                               {"repeat", repeat}}}};
  for (const Row& row : rows) {
    doc.emplace_back(row.name,
                     Object{{"before_ns_per_op", row.section.before_ns},
                            {"after_ns_per_op", row.section.after_ns},
                            {"speedup", row.section.speedup()},
                            {"checksum", row.section.checksum}});
  }
  return doc;
}

int run(int argc, char** argv) {
  util::Cli cli("bench_hot_paths — before/after ns-per-op for the Fenwick "
                "sampler, the oracle cache, and the Standard and Slate "
                "Table-II cycles");
  bench::add_seed_flag(cli);
  bench::add_csv_flag(cli);
  cli.add_int("options", 1 << 14, "weighted-draw options (k)");
  cli.add_int("agents", 64, "agents per cycle (n)");
  cli.add_int("draws", 200000, "sampler draws to time");
  cli.add_int("cycles", 200, "full MWU cycles to time");
  cli.add_int("pool", 512, "precomputed pool size for the oracle bench");
  cli.add_int("patch", 32, "mutations per probed patch");
  cli.add_int("probes", 2000, "oracle probes to time");
  cli.add_int("kernel-iters", 2000, "iterations per weight-kernel row");
  cli.add_int("repeat", 1, "section repetitions; the median is reported");
  cli.add_string("json", "BENCH_hot_paths.json",
                 "machine-readable output path (gated by check_bench.py)");
  if (!cli.parse(argc, argv)) return 0;

  const auto k = static_cast<std::size_t>(cli.get_int("options"));
  const auto agents = static_cast<std::size_t>(cli.get_int("agents"));
  const auto pool_size = static_cast<std::size_t>(cli.get_int("pool"));
  const auto patch_size = static_cast<std::size_t>(cli.get_int("patch"));
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const auto kernel_iters =
      static_cast<std::size_t>(cli.get_int("kernel-iters"));
  const auto repeat =
      std::max<std::size_t>(1, static_cast<std::size_t>(cli.get_int("repeat")));

  // Table II's two 256-option sets, as run_evaluation builds them.
  std::vector<core::OptionSet> slate_sets;
  for (auto& dataset : datasets::standard_suite(seed, kSlateOptions)) {
    const std::string& name = dataset.options.name();
    if (name == "random256" || name == "unimodal256") {
      slate_sets.push_back(std::move(dataset.options));
    }
  }
  SlateTail slate_tail;
  const std::vector<Row> rows = {
      {"sampler", "weighted draw (linear -> Fenwick)",
       median_of(repeat,
                 [&] {
                   return bench_sampler(
                       k, static_cast<std::size_t>(cli.get_int("draws")),
                       seed);
                 })},
      {"oracle", "phase-2 probe (uncached -> cached)",
       median_of(repeat,
                 [&] {
                   return bench_oracle(
                       pool_size, patch_size,
                       static_cast<std::size_t>(cli.get_int("probes")), seed);
                 })},
      {"table2_cycle", "Standard-MWU cycle",
       median_of(repeat,
                 [&] {
                   return bench_table2_cycle(
                       k, agents,
                       static_cast<std::size_t>(cli.get_int("cycles")), seed);
                 })},
      {"slate_cycle", "Slate-MWU cycle (full walk -> one-pass cap)",
       median_of(repeat,
                 [&] {
                   return bench_slate_cycle(slate_sets, seed, slate_tail);
                 })},
      {"kernel_update", "kernel pow_update (scalar -> simd)",
       median_of(repeat,
                 [&] { return bench_kernel_update(k, kernel_iters, seed); })},
      {"kernel_normalize", "kernel fenwick_rebuild (scalar -> simd)",
       median_of(repeat,
                 [&] {
                   return bench_kernel_normalize(k, kernel_iters, seed);
                 })},
      {"kernel_materialize", "kernel materialize (scalar -> simd)",
       median_of(repeat, [&] {
         return bench_kernel_materialize(k, kernel_iters, seed);
       })},
  };

  util::Table table("Hot-path before/after (k=" + std::to_string(k) +
                    ", n=" + std::to_string(agents) + ", dispatch=" +
                    util::simd::dispatch_name() + ")");
  table.set_header({"path", "before ns/op", "after ns/op", "speedup"});
  for (const Row& row : rows) {
    table.add_row({row.label, util::fmt_fixed(row.section.before_ns, 1),
                   util::fmt_fixed(row.section.after_ns, 1),
                   util::fmt_fixed(row.section.speedup(), 2) + "x"});
  }
  table.emit(std::cout, cli.get_string("csv"));
  std::cout << "slate_cycle: " << slate_tail.tail << " of " << slate_tail.calls
            << " cap calls ("
            << util::fmt_fixed(100.0 * static_cast<double>(slate_tail.tail) /
                                   static_cast<double>(slate_tail.calls),
                               2)
            << "%) cap more than four entries\n";

  obs::write_json_file(
      json_document(k, agents, pool_size, patch_size, repeat, rows),
      cli.get_string("json"));
  std::cout << "wrote " << cli.get_string("json") << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  return mwr::bench::guarded_main("bench_hot_paths", run, argc, argv);
}
