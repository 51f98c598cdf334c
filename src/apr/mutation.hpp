// Statement-level mutation operators — the same operator family GenProg and
// its successors use (delete / insert / swap of whole statements), so every
// search algorithm in this repository explores the same space (§IV-G: "MWRepair
// uses the same mutation operators as all four of the algorithms mentioned
// above, so the search space it explores is the same").
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "apr/program.hpp"
#include "util/rng.hpp"

namespace mwr::apr {

enum class MutationKind : std::uint8_t { kDelete = 0, kInsert = 1, kSwap = 2 };

[[nodiscard]] std::string to_string(MutationKind kind);

/// One statement-level edit.  `target` is always a covered statement;
/// `donor` is the copied/swapped statement for insert/swap (ignored for
/// delete, normalized to 0 there so keys are canonical).
struct Mutation {
  MutationKind kind = MutationKind::kDelete;
  std::uint32_t target = 0;
  std::uint32_t donor = 0;

  /// Canonical 64-bit identity used for dedup and for the oracle's
  /// deterministic semantics.  Swap is symmetric, so its operands are
  /// ordered before packing.
  [[nodiscard]] std::uint64_t key() const noexcept;

  friend bool operator==(const Mutation&, const Mutation&) = default;
};

/// A candidate patch is an unordered set of mutations; we keep it as a
/// vector sorted by key, with duplicates removed (applying the same
/// statement edit twice is the identity in this model).
using Patch = std::vector<Mutation>;

/// Sorts by key and removes duplicates, in place.
void canonicalize(Patch& patch);

/// Draws a uniformly random mutation over the covered statements.
[[nodiscard]] Mutation random_mutation(const ProgramModel& program,
                                       util::RngStream& rng);

/// Draws a patch of `size` distinct random mutations.
[[nodiscard]] Patch random_patch(const ProgramModel& program, std::size_t size,
                                 util::RngStream& rng);

/// Draws `size` distinct mutations uniformly from a pool (without
/// replacement; size is clamped to the pool size): the members at
/// sample_from_pool_indexed's indices, canonicalized.
[[nodiscard]] Patch sample_from_pool(std::span<const Mutation> pool,
                                     std::size_t size, util::RngStream& rng);

/// The one without-replacement draw: `min(size, pool_size)` distinct
/// indices of [0, pool_size), uniform over subsets, by partial
/// Fisher–Yates (one uniform_index(pool_size - i) per output).  The
/// indices are emitted ascending into `out` via a selection bitmap — no
/// allocation, no sort; scratch is per-thread.  Over a key-sorted,
/// deduplicated pool (the MutationPool invariant) ascending indices name
/// the canonical patch, so the probe wave samples in index space without
/// materializing Mutations or paying the canonicalize sort (DESIGN.md §14).
void sample_from_pool_indexed(std::size_t pool_size, std::size_t size,
                              util::RngStream& rng,
                              std::vector<std::uint32_t>& out);

}  // namespace mwr::apr
