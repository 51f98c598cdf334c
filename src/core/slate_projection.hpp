// Slate-selection machinery for the Slate MWU variant (paper Fig 2, §II-B/C).
//
// Selecting a size-s slate with per-option marginal probabilities requires
// (1) capping the weight distribution so no option demands inclusion
// probability above 1, and (2) realizing those marginals with a random
// s-subset.  The paper notes the naive projection over all C(k, s) subsets
// is hopeless and realizes the capped weight vector as a convex combination
// of slate vertices in O(k^2) time [17].  Circular systematic sampling
// draws one slate with exactly those inclusion probabilities in O(k), so it
// stands in for the decomposition:
//   - cap_to_slate_marginals: the capping/renormalization step, producing
//     q with 0 <= q_i <= 1 and sum(q) == s;
//   - systematic_sample: one s-subset whose inclusion probabilities are q.
//
// The hot-loop pair each come in a buffer-taking form, the one
// implementation, which reuses the caller's vectors so a Slate cycle
// allocates nothing after its first; the value-returning forms are thin
// wrappers for tests and one-off callers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace mwr::core {

/// Caps and renormalizes a probability distribution `p` (sum 1) into slate
/// inclusion marginals `q` (resized to k): q_i in [0, 1], sum(q) = s, and q
/// proportional to p below the cap.  Requires 1 <= s <= p.size() <= 2^32-1.
///
/// q is defined by the cap-and-rescale fixpoint: sum the uncapped entries
/// left to right, scale them to fill the slots the capped ones leave, cap
/// any that reach 1, repeat.  Each round's sum is a strict left-to-right
/// fold, and those dependent folds are what a call waits on.  So the call
/// computes q in one pass instead of one fold per round:
///   - it finds the five largest entries, then, in one walk in index
///     order, the five sums that skip the j largest of them (j = 0..4) as
///     independent accumulators;
///   - a round always caps the largest live entries, and after j of them
///     are capped the round's sum is exactly the sum that skips j, so it
///     replays the rounds on those five entries alone and ends with one
///     elementwise scale.
/// A round it cannot finish that way (the fifth-largest entry caps, or the
/// capped entries leave no slot or no mass) goes on in the fixpoint itself,
/// from that round and with that round's sum, over a compacted, ascending
/// list of the uncapped indices (`uncapped` is its scratch); so does the
/// whole call when k <= 5.  Either way every sum adds the same terms in
/// the same order as a full walk skipping capped entries, so q is
/// bit-identical to that walk's.  DESIGN.md §8.4 gives the argument.
void cap_to_slate_marginals(std::span<const double> p, std::size_t slate_size,
                            std::vector<double>& q,
                            std::vector<std::uint32_t>& uncapped);

/// Value-returning form of the above, with its own scratch.
[[nodiscard]] std::vector<double> cap_to_slate_marginals(
    std::span<const double> p, std::size_t slate_size);

/// Draws one s-subset whose inclusion probabilities equal q, using circular
/// systematic sampling (the same marginals as drawing one slate of the
/// paper's convex decomposition).  Replaces `selected` with exactly s
/// distinct indices, ascending, and draws one uniform from `rng`.
void systematic_sample(std::span<const double> q, std::size_t slate_size,
                       util::RngStream& rng,
                       std::vector<std::size_t>& selected);

/// Value-returning form of the above.
[[nodiscard]] std::vector<std::size_t> systematic_sample(
    std::span<const double> q, std::size_t slate_size, util::RngStream& rng);

}  // namespace mwr::core
