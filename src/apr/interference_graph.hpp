// The interference graph of a mutation pool: which pairs of members
// interfere under test_oracle.hpp's pairwise model, as an upper-triangular
// CSR over pool positions (row x holds the partners y > x, so each pair is
// stored once) with each pair's hash.
//
// Interference is a program property.  Whether a pair interferes depends
// on the scenario seed and the calibrated rate only, never on the bug
// targeted or on the suite size; the suite size only picks which test an
// interfering pair breaks (hash % tests).  So one graph, paid for with
// C(n, 2) pair hashes, serves the probe-wave table of every oracle of the
// program that draws from the pool or from any subset of it: every bug of
// a campaign, before and after its suite grows, and every (bug, suite)
// oracle the serve hub warms from one interned pool.  Built by
// TestOracle::interference_graph; consumed by TestOracle::prime_wave.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace mwr::apr {

struct InterferenceGraph {
  std::uint64_t seed = 0;        ///< program seed the pair hashes used.
  double interference = 0.0;     ///< the calibrated pair-interference rate.
  std::vector<std::uint64_t> keys;       ///< member keys, strictly ascending.
  std::vector<std::uint32_t> offsets;    ///< CSR row starts, size n + 1.
  std::vector<std::uint32_t> partners;   ///< interfering partner position,
                                         ///< above the row's, ascending.
  std::vector<std::uint64_t> hashes;     ///< that pair's hash.

  [[nodiscard]] std::size_t size() const noexcept { return keys.size(); }
};

}  // namespace mwr::apr
