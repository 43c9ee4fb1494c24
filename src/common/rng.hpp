#pragma once

/// \file rng.hpp
/// Deterministic pseudo-random number generation.
///
/// Simulation reproducibility requires that every stochastic decision in the
/// simulator be driven by an explicitly seeded generator. We use
/// xoshiro256** (Blackman & Vigna) seeded through SplitMix64; independent
/// per-node streams are derived with `Rng::for_stream`, which mixes a stream
/// index into the seed so traffic sources do not share correlated sequences.

#include <array>
#include <cstdint>

namespace nocdvfs::common {

/// SplitMix64: tiny, full-period 64-bit generator used for seeding.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// xoshiro256**: fast, high-quality 64-bit PRNG (period 2^256 - 1).
/// Satisfies UniformRandomBitGenerator.
class Xoshiro256StarStar {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256StarStar(std::uint64_t seed = 0x853C49E6748FEA9BULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }

  result_type operator()() noexcept {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> s_{};
};

/// Convenience wrapper bundling the engine with the distributions the
/// simulator needs. All methods are branch-light and allocation-free.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept : engine_(seed) {}

  /// Derive an independent generator for stream `stream` of a master seed.
  static Rng for_stream(std::uint64_t seed, std::uint64_t stream) noexcept;

  std::uint64_t raw() noexcept { return engine_(); }

  /// Uniform double in [0, 1) with 53 bits of randomness.
  double uniform01() noexcept {
    return static_cast<double>(engine_() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli trial with probability `p` (clamped to [0, 1]).
  bool bernoulli(double p) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return uniform01() < p;
  }

  /// Uniform integer in [0, bound). bound == 0 returns 0.
  /// Uses Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t uniform_below(std::uint64_t bound) noexcept;

 private:
  Xoshiro256StarStar engine_;
};

}  // namespace nocdvfs::common
