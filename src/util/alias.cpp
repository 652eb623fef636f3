#include "hbn/util/alias.h"

#include <limits>
#include <stdexcept>

namespace hbn::util {

AliasTable::AliasTable(std::span<const double> weights) {
  const std::size_t n = weights.size();
  if (n == 0) {
    throw std::invalid_argument("AliasTable: empty weight vector");
  }
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument("AliasTable: too many weights");
  }
  double total = 0.0;
  for (const double w : weights) {
    if (!(w >= 0.0)) {  // negative or NaN
      throw std::invalid_argument("AliasTable: weights must be >= 0");
    }
    total += w;
  }
  if (!(total > 0.0)) {
    throw std::invalid_argument("AliasTable: weight sum must be positive");
  }

  // Vose's stable partition: buckets scaled so the mean lands at 1; each
  // underfull bucket is topped up by exactly one overfull donor, which
  // becomes its alias.
  buckets_.assign(n, Bucket{});
  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small;
  std::vector<std::uint32_t> large;
  for (std::size_t i = 0; i < n; ++i) {
    scaled[i] = weights[i] * static_cast<double>(n) / total;
    buckets_[i].alias = static_cast<std::uint32_t>(i);
    (scaled[i] < 1.0 ? small : large).push_back(
        static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    buckets_[s].accept = scaled[s];
    buckets_[s].alias = l;
    scaled[l] -= 1.0 - scaled[s];
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  // Numerical leftovers on either stack saturate to probability 1.
  for (const std::uint32_t i : small) buckets_[i].accept = 1.0;
  for (const std::uint32_t i : large) buckets_[i].accept = 1.0;
}

}  // namespace hbn::util
