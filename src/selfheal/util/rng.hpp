// Deterministic pseudo-random number generation for simulations.
//
// We implement xoshiro256** (Blackman & Vigna) seeded via SplitMix64 so
// that every simulation in this repository is reproducible from a single
// 64-bit seed, independent of the standard library implementation.
#pragma once

#include <cstdint>
#include <limits>

namespace selfheal::util {

/// SplitMix64: used to expand a single seed into xoshiro state.
/// Also useful directly as a cheap, well-mixed hash of a 64-bit value.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Mixes two 64-bit values into one; used for deterministic task semantics.
[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t a, std::uint64_t b) noexcept {
  return splitmix64(a ^ splitmix64(b));
}

/// xoshiro256** generator. Satisfies std::uniform_random_bit_generator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) noexcept { reseed(seed); }

  void reseed(std::uint64_t seed) noexcept {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      sm += 0x9e3779b97f4a7c15ULL;
      word = splitmix64(sm);
    }
  }

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() noexcept {
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

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept {
    return lo + (hi - lo) * uniform();
  }

  /// Uniform integer in [0, n). Requires n > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t n) noexcept {
    // Lemire's method with rejection to remove modulo bias.
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * n;
    auto lo = static_cast<std::uint64_t>(m);
    if (lo < n) {
      const std::uint64_t threshold = -n % n;
      while (lo < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * n;
        lo = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t between(std::int64_t lo, std::int64_t hi) noexcept {
    return lo + static_cast<std::int64_t>(
                    below(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  [[nodiscard]] bool chance(double p) noexcept { return uniform() < p; }

  /// Exponentially distributed variate with rate `rate` (mean 1/rate).
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Picks a uniformly random element index from a non-empty container size.
  template <typename Container>
  [[nodiscard]] std::size_t index_into(const Container& c) noexcept {
    return static_cast<std::size_t>(below(c.size()));
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4]{};
};

}  // namespace selfheal::util
