#include "hbn/util/rng.h"

#include <cmath>

namespace hbn::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : state_) {
    word = splitmix64(sm);
  }
  // xoshiro must not be seeded with the all-zero state.
  if (state_[0] == 0 && state_[1] == 0 && state_[2] == 0 && state_[3] == 0) {
    state_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::int64_t Rng::nextInRange(std::int64_t lo, std::int64_t hi) noexcept {
  const auto width =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  return lo + static_cast<std::int64_t>(nextBelow(width));
}

std::size_t Rng::nextWeighted(std::span<const double> weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += w;
  if (!(total > 0.0)) return 0;
  double r = nextDouble() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

Rng Rng::split() noexcept {
  return Rng((*this)() ^ 0xd1b54a32d192ed03ULL);
}

}  // namespace hbn::util
