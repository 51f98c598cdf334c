#include "apr/mutation.hpp"

#include <algorithm>
#include <bit>

namespace mwr::apr {

std::string to_string(MutationKind kind) {
  switch (kind) {
    case MutationKind::kDelete:
      return "delete";
    case MutationKind::kInsert:
      return "insert";
    case MutationKind::kSwap:
      return "swap";
  }
  return "?";
}

std::uint64_t Mutation::key() const noexcept {
  std::uint32_t a = target;
  std::uint32_t b = (kind == MutationKind::kDelete) ? 0u : donor;
  if (kind == MutationKind::kSwap && b < a) std::swap(a, b);
  return (static_cast<std::uint64_t>(kind) << 62) |
         (static_cast<std::uint64_t>(a) << 31) | static_cast<std::uint64_t>(b);
}

void canonicalize(Patch& patch) {
  std::sort(patch.begin(), patch.end(),
            [](const Mutation& x, const Mutation& y) { return x.key() < y.key(); });
  patch.erase(std::unique(patch.begin(), patch.end(),
                          [](const Mutation& x, const Mutation& y) {
                            return x.key() == y.key();
                          }),
              patch.end());
}

Mutation random_mutation(const ProgramModel& program, util::RngStream& rng) {
  const auto& covered = program.covered_statements();
  Mutation m;
  m.kind = static_cast<MutationKind>(rng.uniform_index(3));
  m.target = covered[rng.uniform_index(covered.size())];
  if (m.kind != MutationKind::kDelete) {
    // Donor statements may come from anywhere in the program (GenProg's
    // "plastic surgery" assumption: fix material exists elsewhere in the
    // same program).
    m.donor = static_cast<std::uint32_t>(
        rng.uniform_index(program.num_statements()));
  }
  return m;
}

Patch random_patch(const ProgramModel& program, std::size_t size,
                   util::RngStream& rng) {
  Patch patch;
  patch.reserve(size);
  // Rejection on duplicates: the edit universe is vastly larger than any
  // patch, so collisions are rare and the loop terminates quickly.
  while (patch.size() < size) {
    const Mutation m = random_mutation(program, rng);
    const bool duplicate =
        std::any_of(patch.begin(), patch.end(), [&](const Mutation& other) {
          return other.key() == m.key();
        });
    if (!duplicate) patch.push_back(m);
  }
  canonicalize(patch);
  return patch;
}

Patch sample_from_pool(std::span<const Mutation> pool, std::size_t size,
                       util::RngStream& rng) {
  std::vector<std::uint32_t> indices;
  sample_from_pool_indexed(pool.size(), size, rng, indices);
  Patch patch;
  patch.reserve(indices.size());
  for (const std::uint32_t index : indices) patch.push_back(pool[index]);
  // A key-sorted pool yields the canonical patch already; an arbitrary
  // span needs the key sort and dedup.
  canonicalize(patch);
  return patch;
}

namespace {

// Per-thread scratch for the wave's per-probe sampling: an identity
// permutation restored after every call, the slots it touched, and a
// selection bitmap.  Hot enough (one call per staged probe) that the
// allocate + iota + std::sort of the generic path dominated epoch time.
thread_local std::vector<std::uint32_t> t_perm;
thread_local std::vector<std::uint32_t> t_touched;
thread_local std::vector<std::uint64_t> t_selected;

}  // namespace

void sample_from_pool_indexed(std::size_t pool_size, std::size_t size,
                              util::RngStream& rng,
                              std::vector<std::uint32_t>& out) {
  const std::size_t take = std::min(size, pool_size);
  out.clear();
  // Keep the scratch permutation grown to the largest pool seen; the
  // restore pass below maintains the identity invariant between calls.
  if (t_perm.size() < pool_size) {
    const std::size_t old = t_perm.size();
    t_perm.resize(pool_size);
    for (std::size_t i = old; i < pool_size; ++i)
      t_perm[i] = static_cast<std::uint32_t>(i);
  }
  const std::size_t words = (pool_size + 63) / 64;
  t_selected.assign(words, 0);
  t_touched.clear();
  // Partial Fisher–Yates: one uniform_index(pool - i) per output, so every
  // seeded draw sequence is reproducible across versions.  (Floyd's
  // algorithm has the same cost but a different draw sequence, which
  // would silently re-randomize every seeded experiment.)
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(rng.uniform_index(pool_size - i));
    const std::uint32_t value = t_perm[j];
    t_perm[j] = t_perm[i];
    t_perm[i] = value;
    t_touched.push_back(static_cast<std::uint32_t>(j));
    t_selected[value >> 6] |= std::uint64_t{1} << (value & 63);
  }
  // Restore the identity permutation (only touched slots moved).
  for (std::size_t i = 0; i < take; ++i)
    t_perm[i] = static_cast<std::uint32_t>(i);
  for (const std::uint32_t j : t_touched) t_perm[j] = j;
  // Emit set bits in order: ascending indices over a key-sorted pool ==
  // canonicalize's key sort, and without-replacement draws are distinct,
  // so this replaces the former std::sort + unique outright.
  out.reserve(take);
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = t_selected[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      out.push_back(static_cast<std::uint32_t>(w * 64 +
                                               static_cast<std::size_t>(bit)));
    }
  }
}

}  // namespace mwr::apr
