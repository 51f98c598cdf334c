// Deterministic, splittable random number generation for parallel
// experiments.
//
// Library code never touches std::random_device: every stochastic component
// receives an explicit seed (or an RngStream split from a parent), so any
// experiment in the paper reproduction can be replayed bit-for-bit.  The
// generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64 as its
// authors recommend; streams handed to worker threads are derived with
// `split()`, which uses a SplitMix64 jump of the parent state so sibling
// streams are statistically independent.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <vector>

namespace mwr::util {

/// SplitMix64: tiny, fast 64-bit generator used for seeding and stream
/// derivation.  Passes BigCrush when used as a seeder; not used directly for
/// sampling in experiments.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  /// Next 64-bit value.
  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256** 1.0 — the workhorse generator.  64-bit output, 256-bit
/// state, period 2^256 - 1.  Satisfies UniformRandomBitGenerator so it can
/// be plugged into <random> distributions when convenient, although the
/// inline helpers below avoid the libstdc++ distribution objects in hot
/// loops (they are faster and their output is stable across platforms).
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a single 64-bit seed via SplitMix64.
  explicit constexpr Xoshiro256StarStar(std::uint64_t seed = 0xdeadbeefULL) noexcept
      : state_{} {
    SplitMix64 sm(seed);
    for (auto& s : state_) s = sm.next();
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  constexpr result_type operator()() noexcept {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// The raw 256-bit state, for checkpointing a mid-run generator.
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state() const noexcept {
    return state_;
  }
  /// Restores a state captured by state(); the next draw continues the
  /// captured sequence exactly.
  constexpr void set_state(const std::array<std::uint64_t, 4>& s) noexcept {
    state_ = s;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }
  std::array<std::uint64_t, 4> state_;
};

/// RngStream: the interface the rest of the library consumes.  Wraps
/// xoshiro256** with the sampling helpers the MWU algorithms need
/// (unit-interval doubles, bounded integers, Bernoulli trials, weighted
/// choice) and supports splitting off independent child streams for worker
/// threads.
class RngStream {
 public:
  explicit RngStream(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept
      : gen_(seed), seed_(seed) {}

  /// The seed this stream was created with (for logging / provenance).
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// Raw 64 bits.
  std::uint64_t next_u64() noexcept { return gen_(); }

  /// Uniform double in [0, 1).  Uses the top 53 bits so every value is an
  /// exactly-representable dyadic rational — platform independent.
  double uniform() noexcept {
    return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, bound).  bound must be > 0.  Uses Lemire's
  /// multiply-shift rejection method: unbiased and branch-light.
  std::uint64_t uniform_index(std::uint64_t bound) noexcept {
    // 128-bit multiply keeps the fast path a single multiplication.
    __uint128_t m = static_cast<__uint128_t>(gen_()) * bound;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<__uint128_t>(gen_()) * bound;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool bernoulli(double p) noexcept { return uniform() < p; }

  /// Samples an index from an unnormalized non-negative weight vector.
  /// Returns weights.size() only if the total weight is zero (caller bug);
  /// the MWU implementations guard against that state.
  std::size_t weighted_choice(const std::vector<double>& weights) noexcept;

  /// Same, but the caller supplies the precomputed total (hot-loop variant).
  std::size_t weighted_choice(const std::vector<double>& weights,
                              double total) noexcept;

  /// Derives an independent child stream.  Children of the same parent are
  /// pairwise independent (distinct SplitMix64 outputs of the parent seed
  /// sequence), so handing one to each worker thread is safe.
  [[nodiscard]] RngStream split() noexcept {
    return RngStream(gen_() ^ 0xa5a5a5a5a5a5a5a5ULL);
  }

  /// Mid-run checkpoint: the generator's 256-bit state plus the original
  /// seed (kept so provenance survives a restore).  Restoring continues the
  /// draw sequence bit-identically from the capture point.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return gen_.state();
  }
  void restore(std::uint64_t seed,
               const std::array<std::uint64_t, 4>& state) noexcept {
    seed_ = seed;
    gen_.set_state(state);
  }

 private:
  Xoshiro256StarStar gen_;
  std::uint64_t seed_;
};

}  // namespace mwr::util
