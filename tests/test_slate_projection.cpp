// Unit + property tests for core/slate_projection: the capping fixpoint and
// the systematic sampler — the machinery behind the paper's Slate variant
// (§II-C: realizing the capped weight vector's marginals with one slate).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>
#include <set>

#include "core/option_set.hpp"
#include "core/slate_mwu.hpp"
#include "core/slate_projection.hpp"
#include "costmodel/evaluation.hpp"
#include "datasets/suite.hpp"

namespace mwr::core {
namespace {

std::vector<double> normalized_random(std::size_t k, std::uint64_t seed) {
  util::RngStream rng(seed);
  std::vector<double> p(k);
  double total = 0.0;
  for (auto& v : p) total += (v = rng.uniform() + 1e-6);
  for (auto& v : p) v /= total;
  return p;
}

TEST(CapToSlateMarginals, UniformDistributionScalesExactly) {
  const std::vector<double> p(10, 0.1);
  const auto q = cap_to_slate_marginals(p, 3);
  for (const double v : q) EXPECT_NEAR(v, 0.3, 1e-12);
}

TEST(CapToSlateMarginals, CapsDominantEntryAtOne) {
  const std::vector<double> p = {0.97, 0.01, 0.01, 0.01};
  const auto q = cap_to_slate_marginals(p, 2);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  // Remaining mass (1 slot) spread proportionally over the rest.
  EXPECT_NEAR(q[1] + q[2] + q[3], 1.0, 1e-9);
  EXPECT_NEAR(q[1], 1.0 / 3.0, 1e-9);
}

TEST(CapToSlateMarginals, SlateEqualsKSelectsEverything) {
  const auto p = normalized_random(6, 1);
  const auto q = cap_to_slate_marginals(p, 6);
  for (const double v : q) EXPECT_NEAR(v, 1.0, 1e-9);
}

TEST(CapToSlateMarginals, RejectsBadSlateSize) {
  const std::vector<double> p = {0.5, 0.5};
  EXPECT_THROW(cap_to_slate_marginals(p, 0), std::invalid_argument);
  EXPECT_THROW(cap_to_slate_marginals(p, 3), std::invalid_argument);
}

TEST(CapToSlateMarginals, CascadingCaps) {
  // Two heavy entries both need capping once the first is capped.
  const std::vector<double> p = {0.46, 0.44, 0.05, 0.05};
  const auto q = cap_to_slate_marginals(p, 3);
  EXPECT_DOUBLE_EQ(q[0], 1.0);
  EXPECT_DOUBLE_EQ(q[1], 1.0);
  EXPECT_NEAR(q[2] + q[3], 1.0, 1e-9);
  EXPECT_NEAR(q[2], 0.5, 1e-9);
}

// The capping fixpoint as it stood before the compacted index list: every
// round walks all k entries and skips the capped ones.  It is the bit-level
// reference the compacted fixpoint must reproduce.  `rounds` counts the
// rounds run and `exit` names the branch that ended the loop.
enum class FixpointExit { kNoNewCap, kZeroTarget, kUniformFill };

struct ReferenceFixpoint {
  std::vector<double> q;
  std::size_t rounds = 0;
  FixpointExit exit = FixpointExit::kNoNewCap;
};

ReferenceFixpoint reference_cap_to_slate_marginals(
    const std::vector<double>& p, std::size_t slate_size) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  ReferenceFixpoint out;
  std::vector<double>& q = out.q;
  q = p;
  std::vector<bool> capped(k, false);
  std::size_t num_capped = 0;
  for (;;) {
    ++out.rounds;
    double uncapped_mass = 0.0;
    for (std::size_t i = 0; i < k; ++i) {
      if (!capped[i]) uncapped_mass += q[i];
    }
    const double target = s - static_cast<double>(num_capped);
    if (target <= 0.0) {
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = 0.0;
      }
      out.exit = FixpointExit::kZeroTarget;
      break;
    }
    if (uncapped_mass <= 0.0) {
      const double fill = target / static_cast<double>(k - num_capped);
      for (std::size_t i = 0; i < k; ++i) {
        if (!capped[i]) q[i] = fill;
      }
      out.exit = FixpointExit::kUniformFill;
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
      out.exit = FixpointExit::kNoNewCap;
      break;
    }
  }
  return out;
}

TEST(CapToSlateMarginals, MatchesReferenceFixpointBitForBit) {
  // One scratch pair across every case, so the buffer-taking form also
  // runs on buffers left dirty (and larger) by the previous call.
  std::vector<double> q;
  std::vector<std::uint32_t> uncapped;
  const auto check = [&](const std::vector<double>& p, std::size_t slate,
                         const char* what) {
    SCOPED_TRACE(::testing::Message()
                 << what << ": k=" << p.size() << " s=" << slate);
    const ReferenceFixpoint reference =
        reference_cap_to_slate_marginals(p, slate);
    const auto returned = cap_to_slate_marginals(p, slate);
    cap_to_slate_marginals(p, slate, q, uncapped);
    EXPECT_EQ(returned.size(), p.size());
    EXPECT_EQ(q.size(), p.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(returned[i]),
                std::bit_cast<std::uint64_t>(reference.q[i]))
          << "value form, option " << i;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(q[i]),
                std::bit_cast<std::uint64_t>(reference.q[i]))
          << "buffer form, option " << i;
    }
    return reference;
  };

  // Random distributions over the sizes the sweep meets, at the Slate
  // sizes gamma = 0.05 implies and at the extremes s = 1 and s = k.
  for (const std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{13},
                              std::size_t{256}, std::size_t{4096}}) {
    const auto gamma_slate = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::lround(0.05 * static_cast<double>(k))));
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      const auto p = normalized_random(k, 100 * k + seed);
      for (const std::size_t slate :
           {std::size_t{1}, gamma_slate, (k + 1) / 2, k}) {
        check(p, slate, "random");
      }
    }
  }

  // One dominant leader over a flat tail.
  std::vector<double> leader(256, 0.1 / 255.0);
  leader[17] = 0.9;
  EXPECT_GE(check(leader, 13, "leader").rounds, 2u);

  // Several near-cap entries of decreasing size: each round's rescale
  // pushes the next one over the cap.
  std::vector<double> cascade(64, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < cascade.size(); ++i) {
    total += (cascade[i] = std::pow(0.8, static_cast<double>(i)));
  }
  for (auto& v : cascade) v /= total;
  EXPECT_GE(check(cascade, 8, "cascade").rounds, 3u);

  // Capped entries consume every slot: the zero-target branch.
  const std::vector<double> exact = {0.5, 0.0, 0.5, 0.0, 0.0};
  EXPECT_EQ(check(exact, 2, "zero target").exit, FixpointExit::kZeroTarget);

  // An all-zero tail left once the head is capped: the uniform-fill branch.
  const std::vector<double> zero_tail = {0.6, 0.4, 0.0, 0.0, 0.0, 0.0};
  EXPECT_EQ(check(zero_tail, 3, "zero tail").exit,
            FixpointExit::kUniformFill);
}

// Compares both forms of cap_to_slate_marginals with the reference
// fixpoint, bit for bit, and returns the reference's result.
ReferenceFixpoint expect_matches_reference(
    const std::vector<double>& p, std::size_t slate, std::vector<double>& q,
    std::vector<std::uint32_t>& scratch) {
  ReferenceFixpoint reference = reference_cap_to_slate_marginals(p, slate);
  const auto returned = cap_to_slate_marginals(p, slate);
  cap_to_slate_marginals(p, slate, q, scratch);
  EXPECT_EQ(returned.size(), p.size());
  EXPECT_EQ(q.size(), p.size());
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < p.size() && i < q.size(); ++i) {
    const auto want = std::bit_cast<std::uint64_t>(reference.q[i]);
    if (std::bit_cast<std::uint64_t>(q[i]) != want ||
        std::bit_cast<std::uint64_t>(returned[i]) != want) {
      ++mismatches;
    }
  }
  EXPECT_EQ(mismatches, 0u);
  return reference;
}

std::size_t count_capped(const ReferenceFixpoint& reference) {
  return static_cast<std::size_t>(
      std::count(reference.q.begin(), reference.q.end(), 1.0));
}

// The one-pass cap replays the fixpoint on the few largest entries and
// hands the rest to the compacted fixpoint.  Every p that Table II's Slate
// runs meet must come out bit for bit as the reference fixpoint's.  The
// runs are seeded as costmodel::run_evaluation seeds replication 0 and use
// its iteration cap.
TEST(CapToSlateMarginals, MatchesReferenceOnEveryTableTwoSlateCycle) {
  const costmodel::EvalConfig defaults;
  const auto suite =
      datasets::standard_suite(defaults.master_seed, /*max_size=*/256);
  std::vector<double> q;
  std::vector<std::uint32_t> scratch;
  std::size_t rows = 0;
  for (const auto& dataset : suite) {
    const std::string& name = dataset.options.name();
    if (name != "random256" && name != "unimodal256" && name != "Chart26")
      continue;
    ++rows;
    SCOPED_TRACE(name);
    const BernoulliOracle oracle(dataset.options);
    MwuConfig config;
    config.num_options = dataset.options.size();
    SlateMwu mwu(config);
    util::RngStream rng(defaults.master_seed ^ 0x9e3779b97f4a7c15ULL ^
                        (static_cast<std::uint64_t>(MwuKind::kSlate) << 40) ^
                        (dataset.options.size() * 0xc2b2ae3dULL));
    std::vector<double> rewards;
    std::size_t cycles = 0;
    for (; cycles < defaults.max_iterations && !mwu.converged(); ++cycles) {
      const auto p = mwu.probabilities();
      const ReferenceFixpoint reference =
          expect_matches_reference(p, mwu.slate_size(), q, scratch);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "first mismatch at cycle " << cycles << " after "
                      << reference.rounds << " reference rounds";
        return;
      }
      const auto& slate = mwu.sample(rng);
      rewards.resize(slate.size());
      oracle.sample_batch(slate, rewards, rng);
      mwu.update(slate, rewards, rng);
    }
    EXPECT_GT(cycles, 100u);
  }
  EXPECT_EQ(rows, 3u);
}

// Inputs the one-pass cap cannot finish and must hand to the compacted
// fixpoint: more capped entries than it tracks (it tracks the five largest),
// in the first round or a later one, a capped tie across that boundary, a
// zero target, zero remaining mass, and option sets too small for the
// replay.  Each must still match the reference bit for bit.
TEST(CapToSlateMarginals, TailCasesMatchReference) {
  std::vector<double> q;
  std::vector<std::uint32_t> scratch;

  // Seven heavy entries over a light tail all cap in the first round.
  std::vector<double> heavy(64, 0.3 / 57.0);
  for (std::size_t i = 0; i < 7; ++i) {
    heavy[3 + 9 * i] = 0.1 - 0.001 * static_cast<double>(i);
  }
  EXPECT_EQ(count_capped(expect_matches_reference(heavy, 13, q, scratch)),
            7u);

  // A geometric cascade caps four entries, then three (which hands the
  // round on with four capped), then one.
  std::vector<double> cascade(64, 0.0);
  double total = 0.0;
  for (std::size_t i = 0; i < cascade.size(); ++i) {
    total += (cascade[i] = std::pow(0.8, static_cast<double>(i)));
  }
  for (auto& v : cascade) v /= total;
  const ReferenceFixpoint cascaded =
      expect_matches_reference(cascade, 12, q, scratch);
  EXPECT_EQ(count_capped(cascaded), 8u);
  EXPECT_EQ(cascaded.rounds, 4u);

  // Six equal heavy entries tie across the fifth rank and cap at once.
  std::vector<double> tied(256, 0.4 / 250.0);
  for (std::size_t i = 0; i < 6; ++i) tied[200 - 31 * i] = 0.1;
  EXPECT_EQ(count_capped(expect_matches_reference(tied, 13, q, scratch)), 6u);

  // The same tie below the cap: no entry caps, which the replay finishes.
  std::vector<double> tied_uncapped(256, 0.7 / 250.0);
  for (std::size_t i = 0; i < 6; ++i) tied_uncapped[200 - 31 * i] = 0.05;
  EXPECT_EQ(count_capped(expect_matches_reference(tied_uncapped, 13, q,
                                                  scratch)),
            0u);

  // Two capped entries consume both slots: the zero-target exit.
  std::vector<double> exact(10, 0.0);
  exact[2] = 0.5;
  exact[7] = 0.5;
  EXPECT_EQ(expect_matches_reference(exact, 2, q, scratch).exit,
            FixpointExit::kZeroTarget);

  // Nothing left once the head is capped, and nothing at all: the
  // uniform-fill exit.
  std::vector<double> zero_tail(10, 0.0);
  zero_tail[0] = 0.6;
  zero_tail[1] = 0.4;
  EXPECT_EQ(expect_matches_reference(zero_tail, 3, q, scratch).exit,
            FixpointExit::kUniformFill);
  const std::vector<double> zeros(12, 0.0);
  EXPECT_EQ(expect_matches_reference(zeros, 4, q, scratch).exit,
            FixpointExit::kUniformFill);

  // Option sets of at most five entries, with and without caps.
  for (std::size_t k = 1; k <= 5; ++k) {
    const auto p = normalized_random(k, 900 + k);
    for (std::size_t slate = 1; slate <= k; ++slate) {
      expect_matches_reference(p, slate, q, scratch);
    }
  }
  const std::vector<double> leader5 = {0.02, 0.9, 0.03, 0.03, 0.02};
  EXPECT_EQ(count_capped(expect_matches_reference(leader5, 2, q, scratch)),
            1u);
}

TEST(SystematicSample, AlwaysReturnsExactlySlateDistinctIndices) {
  util::RngStream rng(3);
  const auto p = normalized_random(50, 4);
  const auto q = cap_to_slate_marginals(p, 7);
  for (int trial = 0; trial < 200; ++trial) {
    const auto slate = systematic_sample(q, 7, rng);
    ASSERT_EQ(slate.size(), 7u);
    const std::set<std::size_t> unique(slate.begin(), slate.end());
    EXPECT_EQ(unique.size(), 7u);
    for (const auto i : slate) EXPECT_LT(i, 50u);
  }
}

TEST(SystematicSample, RejectsBadSlateSize) {
  util::RngStream rng(5);
  const std::vector<double> q = {1.0, 1.0};
  EXPECT_THROW(systematic_sample(q, 0, rng), std::invalid_argument);
  EXPECT_THROW(systematic_sample(q, 3, rng), std::invalid_argument);
}

TEST(SystematicSample, CappedEntryIsAlwaysSelected) {
  util::RngStream rng(6);
  const std::vector<double> p = {0.97, 0.01, 0.01, 0.01};
  const auto q = cap_to_slate_marginals(p, 2);  // q[0] == 1
  for (int trial = 0; trial < 100; ++trial) {
    const auto slate = systematic_sample(q, 2, rng);
    EXPECT_NE(std::find(slate.begin(), slate.end(), 0u), slate.end());
  }
}

// Draws `trials` slates from the capped marginals of a random weight
// vector and checks each is an s-subset of distinct, ascending, in-range
// options and that each option's inclusion frequency approaches q_i.
// Returns the number of distinct slates drawn: the support of the mixture
// of slates the sampler realizes.
std::size_t expect_inclusion_frequencies(std::size_t k, std::size_t slate,
                                         std::uint64_t seed,
                                         util::RngStream& rng) {
  constexpr int kTrials = 50000;
  SCOPED_TRACE(::testing::Message()
               << "k=" << k << " slate=" << slate << " seed=" << seed);
  const auto q = cap_to_slate_marginals(normalized_random(k, seed), slate);
  std::vector<int> counts(k, 0);
  std::set<std::vector<std::size_t>> support;
  std::vector<std::size_t> selected;
  for (int trial = 0; trial < kTrials; ++trial) {
    systematic_sample(q, slate, rng, selected);
    EXPECT_EQ(selected.size(), slate);
    EXPECT_TRUE(std::adjacent_find(selected.begin(), selected.end(),
                                   std::greater_equal<>()) == selected.end())
        << "slate members must be distinct and ascending";
    if (::testing::Test::HasFailure()) return support.size();
    if (!selected.empty() && selected.back() >= k) {
      ADD_FAILURE() << "slate members must index the options";
      return support.size();
    }
    for (const auto i : selected) ++counts[i];
    support.insert(selected);
  }
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(static_cast<double>(counts[i]) / kTrials, q[i], 0.02)
        << "option " << i;
  }
  return support.size();
}

TEST(SystematicSample, InclusionFrequenciesMatchMarginals) {
  util::RngStream rng(7);
  expect_inclusion_frequencies(12, 4, 8, rng);
}

// The sampler draws one slate of a convex combination of slates whose
// mixture reproduces q: over many draws every slate is an s-subset of
// distinct in-range options, each option's inclusion frequency approaches
// q_i, and the slates drawn number O(k) — systematic sampling's offset
// crosses at most k breakpoints.  Swept over (k, s) shapes from a single
// slot to a quarter of the options, five weight vectors each.
class DecompositionSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {};

TEST_P(DecompositionSweep, MixtureReproducesMarginals) {
  const auto [k, slate] = GetParam();
  util::RngStream rng(7 + 1000 * k + slate);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    EXPECT_LE(expect_inclusion_frequencies(k, slate, seed, rng), 2 * k + 2);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, DecompositionSweep,
    ::testing::Values(std::make_tuple(4, 1), std::make_tuple(8, 2),
                      std::make_tuple(16, 3), std::make_tuple(32, 8),
                      std::make_tuple(64, 5), std::make_tuple(100, 25)));

}  // namespace
}  // namespace mwr::core
