// Cross-dispatch bit-identity suite for the SoA weight kernels
// (DESIGN.md §12): every kernel must produce bit-for-bit identical results
// under forced-scalar and runtime (AVX2 when available) dispatch, across
// the Fenwick hybrid threshold (k = 127 / 128 / 129), odd and remainder
// lane counts, and Table-II scale (k = 2^14).  On a machine without AVX2
// both tables are the scalar one and the comparisons hold trivially — the
// suite is then re-run under MWR_FORCE_SCALAR=1 in CI so at least one
// configured lane exercises each side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "core/exp3_mwu.hpp"
#include "core/mwu.hpp"
#include "core/standard_mwu.hpp"
#include "util/fenwick_sampler.hpp"
#include "util/rng.hpp"
#include "util/simd/weight_kernels.hpp"

namespace mwr {
namespace {

namespace simd = util::simd;

// The sweep: 1 (degenerate), odd/remainder lane counts below and around
// the 4- and 8-wide vector strides, the Fenwick linear/descent threshold
// (kLinearCutoff = 128) on both sides, and Table-II scale.
const std::size_t kSizes[] = {1,  2,  3,   5,   7,   8,    9,
                              13, 31, 32,  33,  127, 128,  129,
                              255, 257, std::size_t{1} << 14};

bool env_forces_scalar() {
  const char* env = std::getenv("MWR_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' &&
         !(env[0] == '0' && env[1] == '\0');
}

/// Restores the environment-selected dispatch on scope exit, so this suite
/// never leaks a forced mode into other tests in the same binary (the CI
/// forced-scalar lane relies on that mode surviving the whole run).
struct DispatchRestore {
  ~DispatchRestore() { simd::force_scalar_for_testing(env_forces_scalar()); }
};

struct Tables {
  simd::WeightKernels scalar;
  simd::WeightKernels dispatched;
};

Tables tables() {
  simd::force_scalar_for_testing(true);
  const simd::WeightKernels scalar = simd::active();
  simd::force_scalar_for_testing(false);
  const simd::WeightKernels dispatched = simd::active();
  return {scalar, dispatched};
}

std::vector<double> random_weights(std::size_t n, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> w(n);
  for (auto& v : w) v = 0.25 + rng.uniform();
  return w;
}

::testing::AssertionResult bitwise_equal(const std::vector<double>& a,
                                         const std::vector<double>& b) {
  if (a.size() != b.size())
    return ::testing::AssertionFailure() << "size mismatch";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) {
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::memcmp(&a[i], &b[i], sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "first divergence at index " << i << ": " << a[i]
               << " vs " << b[i];
    }
  }
  return ::testing::AssertionSuccess();
}

TEST(WeightKernelsIdentity, PowUpdate) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<double> exps(n, 0.0);
    for (std::size_t i = 0; i < n; i += 5) {
      exps[i] = 1.0 + static_cast<double>(i % 3);
    }
    std::vector<double> a = random_weights(n, 11 + n);
    std::vector<double> b = a;
    t.scalar.pow_update(a.data(), exps.data(), n, 1.05);
    t.dispatched.pow_update(b.data(), exps.data(), n, 1.05);
    EXPECT_TRUE(bitwise_equal(a, b)) << "pow_update n=" << n;
  }
}

TEST(WeightKernelsIdentity, ExpUpdate) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<double> exps(n, 0.0);
    for (std::size_t i = 0; i < n; i += 3) {
      exps[i] = 0.01 * static_cast<double>(1 + i % 7);
    }
    std::vector<double> a = random_weights(n, 23 + n);
    std::vector<double> b = a;
    t.scalar.exp_update(a.data(), exps.data(), n);
    t.dispatched.exp_update(b.data(), exps.data(), n);
    EXPECT_TRUE(bitwise_equal(a, b)) << "exp_update n=" << n;
  }
}

TEST(WeightKernelsIdentity, MaxReduceAndArgmax) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<double> w = random_weights(n, 37 + n);
    // Plant an exact duplicate of the maximum so argmax's first-occurrence
    // tie-break is actually exercised (and again at the last slot).
    const std::size_t mi = static_cast<std::size_t>(
        std::max_element(w.begin(), w.end()) - w.begin());
    if (n >= 3) {
      w[n / 2] = w[mi];
      w[n - 1] = w[mi];
    }
    const std::size_t expected = static_cast<std::size_t>(
        std::max_element(w.begin(), w.end()) - w.begin());
    EXPECT_EQ(t.scalar.max_reduce(w.data(), n),
              t.dispatched.max_reduce(w.data(), n))
        << "max_reduce n=" << n;
    EXPECT_EQ(t.scalar.argmax(w.data(), n), expected) << "argmax n=" << n;
    EXPECT_EQ(t.dispatched.argmax(w.data(), n), expected)
        << "argmax n=" << n;
  }
}

TEST(WeightKernelsIdentity, ScaleDivide) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<double> a = random_weights(n, 41 + n);
    std::vector<double> b = a;
    t.scalar.scale_divide(a.data(), n, 1.7);
    t.dispatched.scale_divide(b.data(), n, 1.7);
    EXPECT_TRUE(bitwise_equal(a, b)) << "scale_divide n=" << n;
  }
}

TEST(WeightKernelsIdentity, MaterializeAffine) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    const std::vector<double> src = random_weights(n, 43 + n);
    const double denom = simd::sum_seq(src.data(), n);
    std::vector<double> a(n, -1.0);
    std::vector<double> b(n, -1.0);
    t.scalar.materialize_affine(a.data(), src.data(), n, 0.95, denom, 0.003);
    t.dispatched.materialize_affine(b.data(), src.data(), n, 0.95, denom,
                                    0.003);
    EXPECT_TRUE(bitwise_equal(a, b)) << "materialize_affine n=" << n;
  }
}

TEST(WeightKernelsIdentity, MaterializeCounts) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<std::uint32_t> counts(n);
    for (std::size_t i = 0; i < n; ++i) {
      counts[i] = static_cast<std::uint32_t>((i * 2654435761u) % 100003u);
    }
    std::vector<double> a(n, -1.0);
    std::vector<double> b(n, -1.0);
    t.scalar.materialize_counts(a.data(), counts.data(), n, 513.0);
    t.dispatched.materialize_counts(b.data(), counts.data(), n, 513.0);
    EXPECT_TRUE(bitwise_equal(a, b)) << "materialize_counts n=" << n;
  }
}

TEST(WeightKernelsIdentity, MaskOrGather) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    // A mask table larger than any index sweep, plus an index sequence with
    // repeats and out-of-order jumps — the probe-wave access pattern.
    const std::size_t table = 2048;
    std::vector<std::uint64_t> masks(table);
    util::RngStream rng(59 + n);
    for (auto& m : masks) m = rng.next_u64();
    std::vector<std::uint32_t> idx(n);
    for (std::size_t i = 0; i < n; ++i) {
      idx[i] = static_cast<std::uint32_t>((i * 997 + 13) % table);
    }
    std::uint64_t expected = 0;
    for (const std::uint32_t j : idx) expected |= masks[j];
    EXPECT_EQ(t.scalar.mask_or_gather(masks.data(), idx.data(), n), expected)
        << "mask_or_gather n=" << n;
    EXPECT_EQ(t.dispatched.mask_or_gather(masks.data(), idx.data(), n),
              expected)
        << "mask_or_gather n=" << n;
  }
}

TEST(WeightKernelsIdentity, PopcountAnd) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    std::vector<std::uint64_t> a(n);
    std::vector<std::uint64_t> b(n);
    util::RngStream rng(61 + n);
    for (std::size_t i = 0; i < n; ++i) {
      a[i] = rng.next_u64();
      b[i] = rng.next_u64();
    }
    std::size_t expected = 0;
    for (std::size_t i = 0; i < n; ++i) {
      std::uint64_t word = a[i] & b[i];
      for (; word != 0; word &= word - 1) ++expected;
    }
    EXPECT_EQ(t.scalar.popcount_and(a.data(), b.data(), n), expected)
        << "popcount_and n=" << n;
    EXPECT_EQ(t.dispatched.popcount_and(a.data(), b.data(), n), expected)
        << "popcount_and n=" << n;
  }
}

TEST(WeightKernelsIdentity, FenwickRebuild) {
  DispatchRestore restore;
  const Tables t = tables();
  for (const std::size_t n : kSizes) {
    for (const double divisor : {1.0, 1.7}) {
      std::vector<double> wa = random_weights(n, 47 + n);
      std::vector<double> wb = wa;
      std::vector<double> ta(n + 1, -7.0);  // prior contents must be ignored
      std::vector<double> tb(n + 1, 99.0);
      const double total_a =
          t.scalar.fenwick_rebuild(wa.data(), ta.data(), n, divisor);
      const double total_b =
          t.dispatched.fenwick_rebuild(wb.data(), tb.data(), n, divisor);
      EXPECT_EQ(total_a, total_b) << "fenwick total n=" << n;
      EXPECT_TRUE(bitwise_equal(wa, wb)) << "fenwick weights n=" << n;
      EXPECT_TRUE(bitwise_equal(ta, tb)) << "fenwick tree n=" << n;
      // And the strict left-to-right fold contract holds on both.
      EXPECT_EQ(total_a, simd::sum_seq(wa.data(), n)) << "fold n=" << n;
    }
  }
}

// --- whole-trajectory identity: learners and sampler across dispatch ----

template <typename MakeStrategy>
void expect_identical_trajectories(std::size_t k, MakeStrategy&& make) {
  // One full bandit run per dispatch mode: same seeds, same reward rule.
  // Weights, probabilities, draw sequences, and the preferred option must
  // agree bit-for-bit at every cycle.
  const auto run = [&](bool force_scalar) {
    simd::force_scalar_for_testing(force_scalar);
    auto mwu = make();
    mwu->init();
    util::RngStream rng(0xBADDECAF ^ k);
    std::vector<std::vector<std::size_t>> draws;
    std::vector<std::vector<double>> probs;
    std::vector<std::size_t> best;
    for (int cycle = 0; cycle < 8; ++cycle) {
      const auto options = mwu->sample(rng);
      std::vector<double> rewards(options.size());
      for (std::size_t j = 0; j < options.size(); ++j) {
        rewards[j] = options[j] * 2 < k ? 1.0 : 0.0;
      }
      mwu->update(options, rewards, rng);
      draws.push_back(options);
      probs.push_back(mwu->probabilities());
      best.push_back(mwu->best_option());
    }
    return std::tuple(draws, probs, best);
  };
  const auto scalar = run(true);
  const auto dispatched = run(false);
  EXPECT_EQ(std::get<0>(scalar), std::get<0>(dispatched))
      << "draw sequences diverged at k=" << k;
  ASSERT_EQ(std::get<1>(scalar).size(), std::get<1>(dispatched).size());
  for (std::size_t c = 0; c < std::get<1>(scalar).size(); ++c) {
    EXPECT_TRUE(
        bitwise_equal(std::get<1>(scalar)[c], std::get<1>(dispatched)[c]))
        << "probabilities diverged at k=" << k << " cycle " << c;
  }
  EXPECT_EQ(std::get<2>(scalar), std::get<2>(dispatched))
      << "best_option diverged at k=" << k;
}

TEST(DispatchTrajectoryIdentity, StandardMwu) {
  DispatchRestore restore;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{1} << 14}) {
    core::MwuConfig config;
    config.num_options = k;
    config.num_agents = 16;
    expect_identical_trajectories(
        k, [&] { return std::make_unique<core::StandardMwu>(config); });
  }
}

TEST(DispatchTrajectoryIdentity, Exp3Mwu) {
  DispatchRestore restore;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{1} << 14}) {
    core::MwuConfig config;
    config.num_options = k;
    config.num_agents = 16;
    expect_identical_trajectories(
        k, [&] { return std::make_unique<core::Exp3Mwu>(config); });
  }
}

TEST(DispatchTrajectoryIdentity, FenwickSamplerDraws) {
  DispatchRestore restore;
  for (const std::size_t k :
       {std::size_t{1}, std::size_t{127}, std::size_t{128}, std::size_t{129},
        std::size_t{1} << 14}) {
    const std::vector<double> weights = random_weights(k, 53 + k);
    const auto draw_sequence = [&](bool force_scalar) {
      simd::force_scalar_for_testing(force_scalar);
      util::FenwickSampler sampler(weights);
      // Exercise the fused renormalize path too: divide by the max, which
      // must leave the draw trajectory a pure function of the weights.
      sampler.rebuild_in_place(simd::active().max_reduce(
          sampler.raw_weights().data(), sampler.size()));
      util::RngStream rng(0xFEED ^ k);
      std::vector<std::size_t> draws(512);
      for (auto& d : draws) d = sampler.sample(rng);
      return draws;
    };
    EXPECT_EQ(draw_sequence(true), draw_sequence(false))
        << "sampler draws diverged at k=" << k;
  }
}

}  // namespace
}  // namespace mwr
