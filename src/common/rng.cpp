#include "common/rng.hpp"

namespace nocdvfs::common {

Xoshiro256StarStar::Xoshiro256StarStar(std::uint64_t seed) noexcept {
  // Seed via SplitMix64 per the xoshiro authors' recommendation: avoids the
  // all-zero state and decorrelates nearby integer seeds.
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.next();
}

Rng Rng::for_stream(std::uint64_t seed, std::uint64_t stream) noexcept {
  // Mix the stream index through SplitMix64 so that streams 0,1,2,... of the
  // same master seed land far apart in seed space.
  SplitMix64 sm(seed ^ (0x9E3779B97F4A7C15ULL * (stream + 1)));
  return Rng(sm.next());
}

std::uint64_t Rng::uniform_below(std::uint64_t bound) noexcept {
  if (bound == 0) return 0;
  // Lemire's method: multiply-high with rejection to remove modulo bias.
  std::uint64_t x = engine_();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = engine_();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

}  // namespace nocdvfs::common
