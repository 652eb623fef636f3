#include "hbn/util/bytes.h"

namespace hbn::util {

std::uint64_t fnv1a(std::string_view bytes) noexcept {
  std::uint64_t hash = 14695981039346656037ULL;
  for (const char c : bytes) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
}

}  // namespace hbn::util
