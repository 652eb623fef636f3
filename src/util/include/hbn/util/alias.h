// Walker/Vose alias method: O(1) sampling from a fixed discrete
// distribution after O(n) preprocessing.
//
// The stream generators draw an object popularity per request; a binary
// search over the cumulative weights is O(log n) per draw and was the
// dominant generator cost in the serving benchmarks once the serving
// engine itself was batched. The alias table replaces it with one
// bounded integer draw and one Bernoulli draw per sample, independent of
// the distribution size.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hbn/util/rng.h"

namespace hbn::util {

/// Immutable alias table over non-negative weights with a positive sum.
/// Construction is deterministic (stack-based Vose partition, no
/// randomness), so seeded streams stay reproducible across platforms.
class AliasTable {
 public:
  explicit AliasTable(std::span<const double> weights);

  [[nodiscard]] std::size_t size() const noexcept { return buckets_.size(); }

  /// Draws an index in [0, size()) with probability proportional to its
  /// weight: O(1) — one bounded draw to pick a bucket, one uniform draw
  /// to accept it or take its alias. The accept/alias choice indexes a
  /// pair rather than branching: on skewed weights that branch is a coin
  /// flip the predictor cannot learn.
  [[nodiscard]] std::size_t sample(Rng& rng) const {
    const auto index = static_cast<std::uint32_t>(
        rng.nextBelow(static_cast<std::uint64_t>(buckets_.size())));
    const Bucket& bucket = buckets_[index];
    const std::uint32_t choice[2] = {bucket.alias, index};
    return choice[rng.nextDouble() < bucket.accept];
  }

 private:
  /// One bucket's row, kept together so a draw touches one cache line.
  struct Bucket {
    double accept = 1.0;      ///< acceptance probability
    std::uint32_t alias = 0;  ///< fallback index
  };
  std::vector<Bucket> buckets_;
};

}  // namespace hbn::util
