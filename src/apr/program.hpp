// Synthetic program model: the substrate MWRepair and the baselines search
// over.
//
// Substitution (DESIGN.md §2): the paper mutates real C/Java programs and
// runs their regression suites.  What every search algorithm actually
// consumes is (a) a universe of statement-level edits restricted to covered
// code and (b) a deterministic mapping from a set of edits to test
// outcomes.  ProgramModel provides (a): statements with a coverage bitmap
// derived from the scenario's coverage fraction; TestOracle (test_oracle.hpp)
// provides (b).
#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "datasets/scenario.hpp"
#include "util/rng.hpp"

namespace mwr::apr {

/// stable_hash's input state: each part times its multiplier, xored into
/// the seed.  A part that is 0 adds nothing, so the state splits by part —
/// stable_hash_state(s, a, b, c) ==
/// stable_hash_state(s, a, b) ^ stable_hash_state(0, 0, 0, c) — and a loop
/// over many (b, c) pairs can compute each part's share once.
[[nodiscard]] constexpr std::uint64_t stable_hash_state(
    std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
    std::uint64_t c = 0) noexcept {
  return seed ^ (a * 0x9e3779b97f4a7c15ULL) ^ (b * 0xc2b2ae3d27d4eb4fULL) ^
         (c * 0x165667b19e3779f9ULL);
}

/// stable_hash from its input state (stable_hash_state).
[[nodiscard]] inline std::uint64_t stable_hash_of_state(
    std::uint64_t state) noexcept {
  util::SplitMix64 sm(state);
  sm.next();
  return sm.next();
}

/// Stable hashing for the scenario's deterministic semantics: the same
/// (seed, parts...) always produces the same 64-bit value, independent of
/// platform.  Used for coverage, safety, interference, and repair relevance.
/// Inline: the oracle's per-test and per-pair loops call it millions of
/// times.
[[nodiscard]] inline std::uint64_t stable_hash(std::uint64_t seed,
                                               std::uint64_t a,
                                               std::uint64_t b = 0,
                                               std::uint64_t c = 0) noexcept {
  return stable_hash_of_state(stable_hash_state(seed, a, b, c));
}

/// Maps a stable hash to a uniform double in [0, 1).
[[nodiscard]] inline double hash_to_unit(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// The integer form of `hash_to_unit(h) < q`: `(h >> 11) < unit_threshold(q)`
/// for every h.  h >> 11 and q * 2^53 are exact doubles, and an integer is
/// below a real x exactly when it is below ceil(x).
[[nodiscard]] inline std::uint64_t unit_threshold(double q) noexcept {
  if (!(q > 0.0)) return 0;  // also NaN: no hash is below it.
  if (q >= 1.0) return std::uint64_t{1} << 53;
  return static_cast<std::uint64_t>(std::ceil(q * 0x1.0p53));
}

/// The mutable program under repair.
class ProgramModel {
 public:
  explicit ProgramModel(datasets::ScenarioSpec spec);

  [[nodiscard]] const datasets::ScenarioSpec& spec() const noexcept {
    return spec_;
  }
  [[nodiscard]] std::size_t num_statements() const noexcept {
    return spec_.statements;
  }

  /// Whether the regression suite executes this statement.  Mutations are
  /// restricted to covered statements ("to avoid mutations applied to dead
  /// or untested code", §III).
  [[nodiscard]] bool is_covered(std::size_t statement) const;

  /// All covered statement ids, ascending (materialized once).
  [[nodiscard]] const std::vector<std::uint32_t>& covered_statements()
      const noexcept {
    return covered_;
  }

 private:
  datasets::ScenarioSpec spec_;
  std::uint64_t coverage_threshold_;  ///< unit_threshold(spec_.coverage)
  std::vector<std::uint32_t> covered_;
};

}  // namespace mwr::apr
