// Blocked sweeps: one engine task per contiguous block of items instead of
// one per item, so a pass whose per-item work is a few hashes pays no
// per-item std::function call and can keep its own per-block state (a
// counter tally, a scratch row) in registers.
#pragma once

#include <algorithm>
#include <cstddef>

#include "parallel/superstep.hpp"

namespace mwr::parallel {

/// Blocks per participant of a blocked sweep (every worker plus the
/// caller, which drains alongside them), so a participant that joins late
/// leaves no large block behind.
inline constexpr std::size_t kBlocksPerParticipant = 4;

/// How many blocks a sweep of `items` over `workers` splits into:
/// kBlocksPerParticipant per participant, at most one per item.  One with
/// no engine or a one-worker engine, which would run inline anyway.
[[nodiscard]] inline std::size_t block_count(const SuperstepEngine* workers,
                                             std::size_t items) noexcept {
  if (workers == nullptr || workers->workers() <= 1 || items <= 1) return 1;
  return std::min(items, (workers->workers() + 1) * kBlocksPerParticipant);
}

/// fn(begin, end) for each of block_count(workers, items) contiguous
/// blocks of [0, items), of equal size to within one item: over `workers`
/// when there is more than one block, inline otherwise.  The blocks are a
/// pure function of (items, engine width), and a caller that keeps
/// per-item results gets the same answer for any schedule.
template <typename Fn>
void for_each_block(SuperstepEngine* workers, std::size_t items, Fn&& fn) {
  const std::size_t blocks = block_count(workers, items);
  if (blocks == 1) {
    fn(std::size_t{0}, items);
    return;
  }
  workers->parallel_for(blocks, [&](std::size_t b) {
    fn(items * b / blocks, items * (b + 1) / blocks);
  });
}

}  // namespace mwr::parallel
