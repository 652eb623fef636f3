#include "hbn/dynamic/harness.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <type_traits>

namespace hbn::dynamic {

void bucketRequestsByObject(std::span<const Request> requests,
                            int numObjects,
                            std::span<std::size_t> offsets,
                            std::span<Request> bucketed,
                            std::optional<int> numNodes) {
  if (offsets.size() != static_cast<std::size_t>(numObjects) + 1 ||
      bucketed.size() != requests.size()) {
    throw std::invalid_argument("bucketRequestsByObject: buffer sizes");
  }
  std::fill(offsets.begin(), offsets.end(), 0);
  // One validating counting pass; the origin check is hoisted out of the
  // loop when no bound was given.
  const auto count = [&](auto checkOrigin) {
    for (const Request& request : requests) {
      if (request.object < 0 || request.object >= numObjects) {
        throw std::out_of_range("request object out of range");
      }
      if constexpr (decltype(checkOrigin)::value) {
        if (request.origin < 0 || request.origin >= *numNodes) {
          throw std::out_of_range("request origin out of range");
        }
      }
      ++offsets[static_cast<std::size_t>(request.object) + 1];
    }
  };
  if (numNodes) {
    count(std::true_type{});
  } else {
    count(std::false_type{});
  }
  for (std::size_t x = 0; x < static_cast<std::size_t>(numObjects); ++x) {
    offsets[x + 1] += offsets[x];
  }
  // Scatter using offsets[x] as the cursor, then shift the (now
  // advanced) table one slot right to restore the run starts.
  for (const Request& request : requests) {
    bucketed[offsets[static_cast<std::size_t>(request.object)]++] = request;
  }
  for (std::size_t x = static_cast<std::size_t>(numObjects); x > 0; --x) {
    offsets[x] = offsets[x - 1];
  }
  offsets[0] = 0;
}

std::vector<Request> sequenceFromWorkload(const workload::Workload& load,
                                          util::Rng& rng) {
  std::vector<Request> requests;
  for (ObjectId x = 0; x < load.numObjects(); ++x) {
    for (net::NodeId v = 0; v < load.numNodes(); ++v) {
      for (Count i = 0; i < load.reads(x, v); ++i) {
        requests.push_back(Request{x, v, false});
      }
      for (Count i = 0; i < load.writes(x, v); ++i) {
        requests.push_back(Request{x, v, true});
      }
    }
  }
  rng.shuffle(requests);
  return requests;
}

std::vector<Request> makePingPongSequence(const net::Tree& tree,
                                          int numObjects, int roundsPerObject,
                                          Count readsPerBurst,
                                          util::Rng& rng) {
  if (numObjects < 1 || roundsPerObject < 1 || readsPerBurst < 1) {
    throw std::invalid_argument("makePingPongSequence: positive sizes");
  }
  const auto procs = tree.processors();
  if (procs.size() < 2) {
    throw std::invalid_argument("makePingPongSequence: need >= 2 processors");
  }
  std::vector<Request> requests;
  for (ObjectId x = 0; x < numObjects; ++x) {
    // Two fixed "camps" per object: readers at one random processor,
    // writer at another.
    const net::NodeId reader = procs[static_cast<std::size_t>(
        rng.nextBelow(static_cast<std::uint64_t>(procs.size())))];
    net::NodeId writer = reader;
    while (writer == reader) {
      writer = procs[static_cast<std::size_t>(
          rng.nextBelow(static_cast<std::uint64_t>(procs.size())))];
    }
    for (int round = 0; round < roundsPerObject; ++round) {
      for (Count i = 0; i < readsPerBurst; ++i) {
        requests.push_back(Request{x, reader, false});
      }
      requests.push_back(Request{x, writer, true});
    }
  }
  return requests;
}

}  // namespace hbn::dynamic
