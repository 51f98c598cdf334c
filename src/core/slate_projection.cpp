#include "core/slate_projection.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace mwr::core {

void cap_to_slate_marginals(std::span<const double> p,
                            std::size_t slate_size, std::vector<double>& q,
                            std::vector<std::uint32_t>& uncapped) {
  const std::size_t k = p.size();
  const auto s = static_cast<double>(slate_size);
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("cap_to_slate_marginals: bad slate size");

  q.assign(p.begin(), p.end());
  // The uncapped indices, ascending.  Capping only removes entries, so the
  // list stays in index order and every sum below adds the same terms in
  // the same order as a walk over all k entries that skips capped ones.
  uncapped.resize(k);
  std::iota(uncapped.begin(), uncapped.end(), std::uint32_t{0});
  // Fixpoint: scale the uncapped mass to fill the slots the capped entries
  // leave, cap anything that overflows 1, repeat.  Each round caps at least one new entry, so at
  // most k rounds run, and each round touches only the entries still live.
  for (;;) {
    double uncapped_mass = 0.0;
    for (const std::uint32_t i : uncapped) uncapped_mass += q[i];
    const double target = s - static_cast<double>(k - uncapped.size());
    if (target <= 0.0) {
      // All slate slots are consumed by capped entries; zero the rest.
      for (const std::uint32_t i : uncapped) q[i] = 0.0;
      return;
    }
    if (uncapped_mass <= 0.0) {
      // Degenerate distribution (all mass capped or zero): spread the
      // remaining slots uniformly over uncapped entries.
      const double fill = target / static_cast<double>(uncapped.size());
      for (const std::uint32_t i : uncapped) q[i] = fill;
      return;
    }
    const double scale = target / uncapped_mass;
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
  }
}

std::vector<double> cap_to_slate_marginals(std::span<const double> p,
                                           std::size_t slate_size) {
  std::vector<double> q;
  std::vector<std::uint32_t> uncapped;
  cap_to_slate_marginals(p, slate_size, q, uncapped);
  return q;
}

std::vector<SlateComponent> decompose_into_slates(std::span<const double> q,
                                                  std::size_t slate_size) {
  const std::size_t k = q.size();
  const auto s = static_cast<double>(slate_size);
  if (slate_size == 0 || slate_size > k)
    throw std::invalid_argument("decompose_into_slates: bad slate size");
  double total = 0.0;
  for (double v : q) {
    if (v < -1e-12 || v > 1.0 + 1e-12)
      throw std::invalid_argument("decompose_into_slates: q_i outside [0, 1]");
    total += v;
  }
  if (std::abs(total - s) > 1e-6 * s)
    throw std::invalid_argument("decompose_into_slates: sum(q) != slate size");

  std::vector<double> v(q.begin(), q.end());
  double remaining = 1.0;  // invariant: sum(v) == slate_size * remaining
  std::vector<SlateComponent> components;
  std::vector<std::size_t> order(k);

  constexpr double kEps = 1e-12;
  while (remaining > kEps) {
    // Select the slate_size largest entries.
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::partial_sort(order.begin(),
                      order.begin() + static_cast<std::ptrdiff_t>(slate_size),
                      order.end(),
                      [&](std::size_t a, std::size_t b) { return v[a] > v[b]; });
    SlateComponent component;
    component.members.assign(order.begin(),
                             order.begin() +
                                 static_cast<std::ptrdiff_t>(slate_size));
    std::sort(component.members.begin(), component.members.end());
    // Coefficient: limited by the smallest selected entry (it may reach 0)
    // and by keeping every unselected entry <= the new remaining mass.
    double smallest_selected = v[component.members.front()];
    for (std::size_t i : component.members)
      smallest_selected = std::min(smallest_selected, v[i]);
    double largest_unselected = 0.0;
    for (std::size_t i = slate_size; i < k; ++i)
      largest_unselected = std::max(largest_unselected, v[order[i]]);
    double c = std::min(smallest_selected, remaining - largest_unselected);
    c = std::min(c, remaining);
    if (c <= kEps) {
      // Numerical corner: residual mass is noise; emit the final component.
      c = remaining;
    }
    component.coefficient = c;
    for (std::size_t i : component.members) v[i] = std::max(0.0, v[i] - c);
    remaining -= c;
    components.push_back(std::move(component));
    if (components.size() > 2 * k + 2)
      throw std::logic_error("decompose_into_slates failed to terminate");
  }
  return components;
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
