// Deterministic, seedable random number generation for all hbn experiments.
//
// Every stochastic component in the library (topology generators, workload
// generators, simulators, adversaries) draws exclusively from hbn::util::Rng
// so that each experiment is reproducible from a single printed seed.
//
// The generator is xoshiro256** (Blackman & Vigna), seeded via SplitMix64,
// which is the recommended seeding procedure for the xoshiro family. It is
// small, fast, and of far higher quality than std::minstd/rand while being
// exactly reproducible across platforms (unlike std::uniform_int_distribution,
// whose output is implementation-defined — we therefore implement our own
// bounded-draw primitives).
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

namespace hbn::util {

/// SplitMix64 step: advances `state` and returns the next 64-bit output.
/// Exposed because seeding helpers and hash-mixing in tests reuse it.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** pseudo-random generator with convenience draw methods.
/// The per-draw methods are inline: the stream generators call them
/// several times per request, and an out-of-line call each time was most
/// of the generation cost.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// handed to <random> distributions when cross-platform reproducibility of
/// that particular draw does not matter.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Constructs a generator from a 64-bit seed (SplitMix64-expanded).
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
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

  /// Uniform integer in [0, bound). `bound` must be positive.
  /// Uses Lemire-style rejection to avoid modulo bias.
  [[nodiscard]] std::uint64_t nextBelow(std::uint64_t bound) noexcept {
    // Lemire's nearly-divisionless bounded draw with rejection.
    if (bound == 0) return 0;
    std::uint64_t x = (*this)();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = (*this)();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in [lo, hi] (inclusive). Requires lo <= hi.
  [[nodiscard]] std::int64_t nextInRange(std::int64_t lo,
                                         std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  [[nodiscard]] double nextDouble() noexcept {
    // 53 high-quality bits -> [0, 1).
    return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
  }

  /// Bernoulli draw with success probability `p` (clamped to [0,1]).
  [[nodiscard]] bool nextBool(double p = 0.5) noexcept {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return nextDouble() < p;
  }

  /// Samples an index in [0, weights.size()) proportionally to `weights`.
  /// All weights must be non-negative with a positive sum.
  [[nodiscard]] std::size_t nextWeighted(std::span<const double> weights) noexcept;

  /// Fisher-Yates shuffle of `items` (deterministic given the Rng state).
  template <typename T>
  void shuffle(std::vector<T>& items) noexcept {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(nextBelow(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Derives an independent child generator; used to give each object /
  /// trial / agent its own stream without correlating draws.
  [[nodiscard]] Rng split() noexcept;

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace hbn::util
