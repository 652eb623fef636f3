#include "hbn/core/parallel.h"

#include <algorithm>

namespace hbn::core {

int resolveWorkerCount(int requested, int items) {
  if (requested == 0) {
    requested = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
  }
  return std::clamp(requested, 1, std::max(1, items));
}

void uniformCuts(int numObjects, std::span<workload::ObjectId> cuts) {
  const auto workers = static_cast<long>(cuts.size()) - 1;
  for (long t = 0; t <= workers; ++t) {
    cuts[static_cast<std::size_t>(t)] =
        static_cast<workload::ObjectId>(numObjects * t / workers);
  }
}

void requestWeightedCuts(std::span<const std::size_t> offsets,
                         std::size_t objectCost,
                         std::span<workload::ObjectId> cuts) {
  const std::size_t workers = cuts.size() - 1;
  const auto numObjects = static_cast<workload::ObjectId>(offsets.size() - 1);
  const auto count = [&](workload::ObjectId x) {
    return offsets[static_cast<std::size_t>(x) + 1] -
           offsets[static_cast<std::size_t>(x)];
  };
  std::size_t total = 0;
  for (workload::ObjectId x = 0; x < numObjects; ++x) {
    if (count(x) != 0) total += count(x) + objectCost;
  }
  // cost = the weight of the objects below x; cut t is the first x with
  // cost·W >= t·total (exact integer comparison).
  std::size_t cost = 0;
  std::size_t t = 1;
  cuts[0] = 0;
  for (workload::ObjectId x = 0; x < numObjects && t < workers; ++x) {
    while (t < workers && cost * workers >= t * total) cuts[t++] = x;
    if (count(x) != 0) cost += count(x) + objectCost;
  }
  while (t <= workers) cuts[t++] = numObjects;
}

}  // namespace hbn::core
