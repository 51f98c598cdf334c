// FNV-1a, the one fold behind every fingerprint and trajectory hash in the
// repository: campaign and oracle fingerprints, the per-cycle trajectory
// hash, the wire HELLO's geometry check and the SPMD rank-choice hash.
//
// fnv_fold mixes a 64-bit value one little-endian byte at a time (eight
// FNV steps); fnv_fold_bytes mixes a byte string one byte per step.  The
// two are not interchangeable: each caller's fold sequence is pinned by
// checkpoints, goldens and wire peers, so a caller keeps whichever it
// has always used.
#pragma once

#include <bit>
#include <cstdint>
#include <string_view>

namespace mwr::util {

inline constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Folds the eight bytes of `v`, low byte first, into `h`.
constexpr std::uint64_t fnv_fold(std::uint64_t h, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= kFnvPrime;
  }
  return h;
}

/// Folds the bit pattern of `v`.
constexpr std::uint64_t fnv_fold_double(std::uint64_t h, double v) noexcept {
  return fnv_fold(h, std::bit_cast<std::uint64_t>(v));
}

/// Folds each byte of `bytes`, one FNV step per byte.
constexpr std::uint64_t fnv_fold_bytes(std::uint64_t h,
                                       std::string_view bytes) noexcept {
  for (const char c : bytes) {
    h ^= static_cast<std::uint8_t>(c);
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace mwr::util
