#include "core/slate_projection.hpp"

#include <algorithm>
#include <array>
#include <numeric>
#include <stdexcept>

namespace mwr::core {

namespace {

// The one-pass cap replays the fixpoint's rounds on the kTopRanks + 1
// largest entries; a round that caps the rank-kTopRanks entry goes on in
// the compacted fixpoint.
constexpr std::size_t kTopRanks = 4;
constexpr std::size_t kCandidates = kTopRanks + 1;

// The cap-and-rescale fixpoint over a compacted, ascending list of the
// uncapped indices, entered at a round whose capped entries are `capped`
// (a few, in any order) and whose uncapped mass `mass` is the left-to-right
// sum of p over the other entries.  It is the definition the one-pass cap
// reproduces, and it runs the rounds the one-pass cap hands on.
void compacted_fixpoint(std::span<const double> p, std::size_t slate_size,
                        std::span<const std::uint32_t> capped, double mass,
                        std::vector<double>& q,
                        std::vector<std::uint32_t>& uncapped) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  q.assign(p.begin(), p.end());
  // The uncapped indices, ascending.  Capping only removes entries, so the
  // list stays in index order and every sum below adds the same terms in
  // the same order as a walk over all k entries that skips capped ones.
  uncapped.resize(k);
  std::iota(uncapped.begin(), uncapped.end(), std::uint32_t{0});
  for (const std::uint32_t i : capped) {
    q[i] = 1.0;
    uncapped.erase(std::lower_bound(uncapped.begin(), uncapped.end(), i));
  }
  // Fixpoint: scale the uncapped mass to fill the slots the capped entries
  // leave, cap anything that overflows 1, repeat.  Each round caps at least
  // one new entry, so at most k rounds run, and each round touches only the
  // entries still live.
  for (;;) {
    const double target = s - static_cast<double>(k - uncapped.size());
    if (target <= 0.0) {
      // All slate slots are consumed by capped entries; zero the rest.
      for (const std::uint32_t i : uncapped) q[i] = 0.0;
      return;
    }
    if (mass <= 0.0) {
      // Degenerate distribution (all mass capped or zero): spread the
      // remaining slots uniformly over uncapped entries.
      const double fill = target / static_cast<double>(uncapped.size());
      for (const std::uint32_t i : uncapped) q[i] = fill;
      return;
    }
    const double scale = target / mass;
    std::size_t live = 0;
    for (const std::uint32_t i : uncapped) {
      if (q[i] * scale >= 1.0) {
        q[i] = 1.0;
      } else {
        uncapped[live++] = i;
      }
    }
    if (live == uncapped.size()) {
      for (const std::uint32_t i : uncapped) q[i] *= scale;
      return;
    }
    uncapped.resize(live);
    mass = 0.0;
    for (const std::uint32_t i : uncapped) mass += q[i];
  }
}

// The fixpoint's result from one strict sum's latency instead of one per
// round.  Requires p.size() > kCandidates.  A round it cannot finish on the
// candidates alone (the rank-kTopRanks entry caps, or the round leaves no
// slot or no mass) goes on in the compacted fixpoint, from that round and
// with that round's mass, so no sum is taken twice.
//
// Why the replay is exact: with scale > 0, fl(p_i * scale) >= 1 is monotone
// in p_i, so every round caps a top set of the live entries, and after any
// round the capped entries are the j largest.  Round r's mass is then the
// left-to-right sum over all k entries with those j skipped, which is m[j]
// below: a skipped term adds nothing, and the sum starts at +0.0 so it is
// never -0.0 and adding +0.0 leaves it unchanged.  Ties do not matter: a
// round caps all entries of equal value or none, so when it caps exactly
// the candidates of ranks below j, no entry outside them holds a value
// equal to theirs.
void one_pass_cap(std::span<const double> p, std::size_t slate_size,
                  std::vector<double>& q,
                  std::vector<std::uint32_t>& uncapped) {
  const std::size_t k = p.size();
  // Pass A: the kCandidates largest entries, largest first (ties keep the
  // lower index first).  A later entry enters only when it beats the
  // smallest candidate, which is rare once the list has filled.
  std::array<std::uint32_t, kCandidates> top{};
  std::array<double, kCandidates> top_value{};
  // Inserts entry i at `slot` or above it, shifting smaller ones down.
  const auto insert = [&](std::size_t i, std::size_t slot) {
    for (; slot > 0 && p[i] > top_value[slot - 1]; --slot) {
      top[slot] = top[slot - 1];
      top_value[slot] = top_value[slot - 1];
    }
    top[slot] = static_cast<std::uint32_t>(i);
    top_value[slot] = p[i];
  };
  for (std::size_t i = 0; i < kCandidates; ++i) insert(i, i);
  for (std::size_t i = kCandidates; i < k; ++i) {
    if (p[i] > top_value[kTopRanks]) insert(i, kTopRanks);
  }

  // Pass B: m[j] is the left-to-right sum of p with the candidates of rank
  // below j skipped.  The kCandidates sums are independent chains, so one
  // walk finishes them in the latency of one.  The walk goes segment by
  // segment between the candidates in index order; at a candidate of rank
  // r, a sum that skips it adds +0.0 instead.
  std::array<std::size_t, kCandidates> rank_by_index{};
  std::iota(rank_by_index.begin(), rank_by_index.end(), std::size_t{0});
  std::sort(rank_by_index.begin(), rank_by_index.end(),
            [&](std::size_t a, std::size_t b) { return top[a] < top[b]; });
  std::array<double, kCandidates> m{};
  std::size_t begin = 0;
  for (std::size_t c = 0; c <= kCandidates; ++c) {
    const std::size_t end = c < kCandidates ? top[rank_by_index[c]] : k;
    for (std::size_t i = begin; i < end; ++i) {
      const double v = p[i];
      for (double& sum : m) sum += v;
    }
    if (c == kCandidates) break;
    const std::size_t rank = rank_by_index[c];
    const double v = p[end];
    for (std::size_t j = 0; j < kCandidates; ++j) m[j] += j <= rank ? v : 0.0;
    begin = end + 1;
  }

  // Replay: ranks below `capped` are capped; each round caps a prefix of
  // the remaining ranks.
  const auto s = static_cast<double>(slate_size);
  std::size_t capped = 0;
  for (;;) {
    const double target = s - static_cast<double>(capped);
    if (target <= 0.0 || m[capped] <= 0.0) break;  // the fixpoint's exits
    const double scale = target / m[capped];
    std::size_t next = capped;
    while (next < kCandidates && top_value[next] * scale >= 1.0) ++next;
    if (next == capped) {
      q.resize(k);
      for (std::size_t i = 0; i < k; ++i) q[i] = p[i] * scale;
      for (std::size_t r = 0; r < capped; ++r) q[top[r]] = 1.0;
      return;
    }
    if (next == kCandidates) break;  // may cap beyond the candidates
    capped = next;
  }
  compacted_fixpoint(p, slate_size,
                     std::span<const std::uint32_t>(top.data(), capped),
                     m[capped], q, uncapped);
}

}  // namespace

void cap_to_slate_marginals(std::span<const double> p,
                            std::size_t slate_size, std::vector<double>& q,
                            std::vector<std::uint32_t>& uncapped) {
  if (slate_size == 0 || slate_size > p.size())
    throw std::invalid_argument("cap_to_slate_marginals: bad slate size");
  if (p.size() > kCandidates) {
    one_pass_cap(p, slate_size, q, uncapped);
    return;
  }
  double mass = 0.0;
  for (const double v : p) mass += v;
  compacted_fixpoint(p, slate_size, {}, mass, q, uncapped);
}

std::vector<double> cap_to_slate_marginals(std::span<const double> p,
                                           std::size_t slate_size) {
  std::vector<double> q;
  std::vector<std::uint32_t> uncapped;
  cap_to_slate_marginals(p, slate_size, q, uncapped);
  return q;
}

void systematic_sample(std::span<const double> q, std::size_t slate_size,
                       util::RngStream& rng,
                       std::vector<std::size_t>& selected) {
  const std::size_t k = q.size();
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("systematic_sample: bad slate size");
  selected.clear();
  selected.reserve(slate_size);
  // Thresholds u, u+1, ..., u+s-1 walked against the cumulative sum of q.
  // Because each q_i <= 1, at most one threshold falls inside any item, so
  // the selected indices are distinct.
  double next_threshold = rng.uniform();
  double cumulative = 0.0;
  for (std::size_t i = 0; i < k && selected.size() < slate_size; ++i) {
    cumulative += q[i];
    if (next_threshold < cumulative) {
      selected.push_back(i);
      next_threshold += 1.0;
    }
  }
  // Floating-point shortfall: fill from the highest-q unselected items so
  // the slate always has exactly s members.
  if (selected.size() < slate_size) {
    std::vector<bool> in(k, false);
    for (std::size_t i : selected) in[i] = true;
    std::vector<std::size_t> rest;
    for (std::size_t i = 0; i < k; ++i) {
      if (!in[i]) rest.push_back(i);
    }
    std::sort(rest.begin(), rest.end(),
              [&](std::size_t a, std::size_t b) { return q[a] > q[b]; });
    for (std::size_t i : rest) {
      if (selected.size() == slate_size) break;
      selected.push_back(i);
    }
    std::sort(selected.begin(), selected.end());
  }
}

std::vector<std::size_t> systematic_sample(std::span<const double> q,
                                           std::size_t slate_size,
                                           util::RngStream& rng) {
  std::vector<std::size_t> selected;
  systematic_sample(q, slate_size, rng, selected);
  return selected;
}

}  // namespace mwr::core
