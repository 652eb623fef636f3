#include "hbn/dynamic/harness.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <type_traits>

#include "hbn/core/lower_bound.h"

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

CompetitiveResult runCompetitive(const net::RootedTree& rooted,
                                 int numObjects,
                                 const std::vector<Request>& requests,
                                 const std::string& policySpec) {
  const net::Tree& tree = rooted.tree();
  const std::unique_ptr<OnlinePolicy> policy =
      OnlinePolicyRegistry::global().create(policySpec)->build(
          rooted, numObjects, tree.processors().front());
  workload::Workload aggregated(numObjects, tree.nodeCount());

  // Bucket the sequence by object (stable, preserving per-object
  // arrival order): object state machines are independent and integer
  // loads are additive, so grouped serving realises exactly the loads of
  // the interleaved sequence — while batching every object's path
  // charges through the difference-counting accumulator.
  std::vector<std::size_t> offsets(static_cast<std::size_t>(numObjects) + 1);
  std::vector<Request> bucketed(requests.size());
  bucketRequestsByObject(requests, numObjects, offsets, bucketed);
  for (const Request& request : requests) {
    if (request.isWrite) {
      aggregated.addWrites(request.object, request.origin, 1);
    } else {
      aggregated.addReads(request.object, request.origin, 1);
    }
  }

  core::LoadMap loads(tree.edgeCount());
  core::FlatLoadAccumulator acc(policy->flatView());
  ServeScratch scratch;
  Count replications = 0;
  Count invalidations = 0;
  for (ObjectId x = 0; x < numObjects; ++x) {
    const std::size_t begin = offsets[static_cast<std::size_t>(x)];
    const std::size_t end = offsets[static_cast<std::size_t>(x) + 1];
    if (begin == end) continue;
    const ShardStats stats = policy->serveShard(
        x, std::span<const Request>(bucketed.data() + begin, end - begin),
        loads, scratch, &acc);
    replications += stats.replications;
    invalidations += stats.invalidations;
  }

  CompetitiveResult result;
  result.onlineCongestion = loads.congestion(tree);
  result.offlineLowerBound =
      core::analyticLowerBound(rooted, aggregated).congestion;
  result.ratio =
      competitiveRatio(result.onlineCongestion, result.offlineLowerBound);
  result.replications = replications;
  result.invalidations = invalidations;
  return result;
}

CompetitiveResult runCompetitive(const net::RootedTree& rooted,
                                 int numObjects,
                                 const std::vector<Request>& requests,
                                 const OnlineOptions& options) {
  return runCompetitive(rooted, numObjects, requests,
                        treeCountersSpec(options));
}

}  // namespace hbn::dynamic
