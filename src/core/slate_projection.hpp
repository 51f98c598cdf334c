// Slate-selection machinery for the Slate MWU variant (paper Fig 2, §II-B/C).
//
// Selecting a size-s slate with per-option marginal probabilities requires
// (1) capping the weight distribution so no option demands inclusion
// probability above 1, and (2) realizing those marginals with a random
// s-subset.  The paper notes the naive projection over all C(k, s) subsets
// is hopeless and that the capped weight vector can instead be decomposed
// into a convex combination of slate vertices in O(k^2) time [17].
//
// We provide both halves:
//   - cap_to_slate_marginals: the capping/renormalization step, producing
//     q with 0 <= q_i <= 1 and sum(q) == s;
//   - decompose_into_slates: the explicit O(k^2) convex decomposition
//     (Warmuth–Kuzmin style), used by tests and by callers that need the
//     mixture itself;
//   - systematic_sample: the O(k) sampler equivalent to drawing one slate
//     from that mixture, used in the hot loop.
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

/// One vertex of the slate simplex with its mixture coefficient.
struct SlateComponent {
  double coefficient = 0.0;              ///< convex weight, in (0, 1].
  std::vector<std::size_t> members;      ///< exactly s distinct options.
};

/// Caps and renormalizes a probability distribution `p` (sum 1) into slate
/// inclusion marginals `q` (resized to k): q_i in [0, 1], sum(q) = s, and q
/// proportional to p below the cap.  Requires 1 <= s <= p.size() <= 2^32-1.
///
/// Iterates the cap-and-rescale fixpoint, which terminates in at most k
/// rounds.  `uncapped` is scratch: the compacted list of still-uncapped
/// indices, in ascending order.  Each round sums, scales and caps only the
/// entries on it, then drops the newly capped ones, so a round costs the
/// live entries rather than all k.  Because the list keeps index order,
/// every sum adds exactly the terms a full walk skipping capped entries
/// would add, in the same order, and q is bit-identical to that walk's.
void cap_to_slate_marginals(std::span<const double> p, std::size_t slate_size,
                            std::vector<double>& q,
                            std::vector<std::uint32_t>& uncapped);

/// Value-returning form of the above, with its own scratch.
[[nodiscard]] std::vector<double> cap_to_slate_marginals(
    std::span<const double> p, std::size_t slate_size);

/// Decomposes marginals q (0 <= q_i <= 1, sum = s) into a convex combination
/// of s-subsets: sum over components of coefficient * indicator(members)
/// reproduces q, and the coefficients sum to 1.  At most 2k components;
/// O(k^2 log k) time.  Throws std::invalid_argument on infeasible input.
[[nodiscard]] std::vector<SlateComponent> decompose_into_slates(
    std::span<const double> q, std::size_t slate_size);

/// Draws one s-subset whose inclusion probabilities equal q, using circular
/// systematic sampling (equivalent to sampling a component of the convex
/// decomposition by its coefficient).  Replaces `selected` with exactly s
/// distinct indices, ascending, and draws one uniform from `rng`.
void systematic_sample(std::span<const double> q, std::size_t slate_size,
                       util::RngStream& rng,
                       std::vector<std::size_t>& selected);

/// Value-returning form of the above.
[[nodiscard]] std::vector<std::size_t> systematic_sample(
    std::span<const double> q, std::size_t slate_size, util::RngStream& rng);

}  // namespace mwr::core
