// Unit tests for apr/program: the stable hash, coverage structure, and
// construction contracts.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "apr/program.hpp"

namespace mwr::apr {
namespace {

datasets::ScenarioSpec small_spec() {
  datasets::ScenarioSpec spec;
  spec.name = "toy";
  spec.statements = 1000;
  spec.coverage = 0.6;
  spec.seed = 99;
  return spec;
}

TEST(StableHash, DeterministicAndSensitiveToEveryPart) {
  EXPECT_EQ(stable_hash(1, 2, 3, 4), stable_hash(1, 2, 3, 4));
  EXPECT_NE(stable_hash(1, 2, 3, 4), stable_hash(2, 2, 3, 4));
  EXPECT_NE(stable_hash(1, 2, 3, 4), stable_hash(1, 3, 3, 4));
  EXPECT_NE(stable_hash(1, 2, 3, 4), stable_hash(1, 2, 4, 4));
  EXPECT_NE(stable_hash(1, 2, 3, 4), stable_hash(1, 2, 3, 5));
}

TEST(StableHash, UnitMappingInRange) {
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const double u = hash_to_unit(stable_hash(7, i));
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(StableHash, UnitMappingIsRoughlyUniform) {
  double sum = 0.0;
  constexpr int kSamples = 100000;
  for (int i = 0; i < kSamples; ++i) {
    sum += hash_to_unit(stable_hash(11, static_cast<std::uint64_t>(i)));
  }
  EXPECT_NEAR(sum / kSamples, 0.5, 0.01);
}

TEST(StableHash, IntegerThresholdAgreesWithUnitMappingOnRandomHashes) {
  // Coverage, breakage and relevance compare (h >> 11) < unit_threshold(q)
  // in place of hash_to_unit(h) < q; the two must agree on every hash,
  // at the rates' edges as well as inside.
  const double tiny = 0x1.0p-53;
  const double rates[] = {0.0, tiny, 3 * tiny, 0.3,
                          std::nextafter(1.0, 0.0), 1.0};
  util::SplitMix64 gen(2024);
  for (const double q : rates) {
    const std::uint64_t threshold = unit_threshold(q);
    for (int i = 0; i < 200000; ++i) {
      const std::uint64_t h = gen.next();
      ASSERT_EQ((h >> 11) < threshold, hash_to_unit(h) < q)
          << "q=" << q << " h=" << h;
    }
    // The hashes nearest the threshold, where a rounding slip would show.
    for (const std::uint64_t top :
         {threshold, threshold == 0 ? 0 : threshold - 1}) {
      if (top >= (std::uint64_t{1} << 53)) continue;
      const std::uint64_t h = (top << 11) | (gen.next() & 0x7ff);
      EXPECT_EQ((h >> 11) < threshold, hash_to_unit(h) < q)
          << "q=" << q << " h=" << h;
    }
  }
}

TEST(ProgramModel, RejectsDegenerateSpecs) {
  auto spec = small_spec();
  spec.statements = 0;
  EXPECT_THROW(ProgramModel{spec}, std::invalid_argument);
  spec = small_spec();
  spec.coverage = 0.0;
  EXPECT_THROW(ProgramModel{spec}, std::invalid_argument);
  spec.coverage = 1.5;
  EXPECT_THROW(ProgramModel{spec}, std::invalid_argument);
}

TEST(ProgramModel, CoverageFractionIsRespected) {
  const ProgramModel program(small_spec());
  const double fraction = static_cast<double>(
                              program.covered_statements().size()) /
                          static_cast<double>(program.num_statements());
  EXPECT_NEAR(fraction, 0.6, 0.05);
}

TEST(ProgramModel, CoveredListMatchesPredicate) {
  const ProgramModel program(small_spec());
  std::size_t covered = 0;
  for (std::size_t s = 0; s < program.num_statements(); ++s) {
    if (program.is_covered(s)) ++covered;
  }
  EXPECT_EQ(covered, program.covered_statements().size());
  for (const auto s : program.covered_statements()) {
    EXPECT_TRUE(program.is_covered(s));
  }
}

TEST(ProgramModel, CoverageIsDeterministicPerSeed) {
  const ProgramModel a(small_spec());
  const ProgramModel b(small_spec());
  EXPECT_EQ(a.covered_statements(), b.covered_statements());
  auto other = small_spec();
  other.seed = 100;
  const ProgramModel c(other);
  EXPECT_NE(a.covered_statements(), c.covered_statements());
}

TEST(ProgramModel, CoveredStatementsAreSortedUnique) {
  const ProgramModel program(small_spec());
  const auto& covered = program.covered_statements();
  for (std::size_t i = 1; i < covered.size(); ++i) {
    EXPECT_LT(covered[i - 1], covered[i]);
  }
}

}  // namespace
}  // namespace mwr::apr
