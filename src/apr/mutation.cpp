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
  if (t_touched.size() < take) t_touched.resize(take);
  // The loop draws through a local copy of the stream and writes through
  // raw pointers: a store through a vector or the caller's stream may
  // alias the generator state or the vectors' own pointers, which would
  // make every draw store and reload them (see util::RngStream).
  std::uint32_t* const perm = t_perm.data();
  std::uint32_t* const touched = t_touched.data();
  std::uint64_t* const selected = t_selected.data();
  util::RngStream local = rng;
  // Partial Fisher–Yates: one uniform_index(pool - i) per output, so every
  // seeded draw sequence is reproducible across versions.  (Floyd's
  // algorithm has the same cost but a different draw sequence, which
  // would silently re-randomize every seeded experiment.)
  for (std::size_t i = 0; i < take; ++i) {
    const std::size_t j =
        i + static_cast<std::size_t>(local.uniform_index(pool_size - i));
    const std::uint32_t value = perm[j];
    perm[j] = perm[i];
    perm[i] = value;
    touched[i] = static_cast<std::uint32_t>(j);
    selected[value >> 6] |= std::uint64_t{1} << (value & 63);
  }
  rng = local;
  // Restore the identity permutation (only touched slots moved).
  for (std::size_t i = 0; i < take; ++i)
    perm[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = 0; i < take; ++i) perm[touched[i]] = touched[i];
  // Emit set bits in order: ascending indices over a key-sorted pool ==
  // canonicalize's key sort, and without-replacement draws are distinct,
  // so this replaces the former std::sort + unique outright.
  out.resize(take);
  std::uint32_t* const emitted = out.data();
  std::size_t k = 0;
  for (std::size_t w = 0; w < words; ++w) {
    std::uint64_t bits = selected[w];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      bits &= bits - 1;
      emitted[k++] =
          static_cast<std::uint32_t>(w * 64 + static_cast<std::size_t>(bit));
    }
  }
}

}  // namespace mwr::apr
