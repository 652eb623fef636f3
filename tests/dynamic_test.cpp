// Tests for the online (dynamic) strategy and competitive runs of it.
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/harness.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/util/rng.h"
#include "hbn/workload/generators.h"

namespace hbn::dynamic {
namespace {

using net::Tree;

/// A competitive run: the serving engine with the drift handoff off.
serve::ServeReport serveSequence(const net::RootedTree& rooted, int numObjects,
                                 const std::vector<Request>& requests) {
  serve::ServeOptions options;
  options.threads = 1;
  options.replaceDrift = 0.0;
  serve::EpochServer server(rooted, numObjects, options);
  serve::VectorStream stream(requests);
  return server.serve(stream);
}

TEST(OnlineStrategy, FirstReadTravelsToInitialCopy) {
  const Tree t = net::makeStar(3);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineTreeStrategy strategy(rooted, 1, t.processors().front());
  strategy.serve(Request{0, 2, false});
  // Path 2 -> bus -> 1 loads two edges by 1 each.
  EXPECT_EQ(strategy.loads().totalLoad(), 2);
}

TEST(OnlineStrategy, RepeatedReadsTriggerReplication) {
  const Tree t = net::makeStar(3);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineOptions options;
  options.replicationThreshold = 2;
  OnlineTreeStrategy strategy(rooted, 1, 1, options);
  for (int i = 0; i < 6; ++i) strategy.serve(Request{0, 2, false});
  EXPECT_GT(strategy.replications(), 0);
  const auto copies = strategy.copySet(0);
  // The reader's node eventually holds a copy: later reads are local.
  EXPECT_NE(std::find(copies.begin(), copies.end(), 2), copies.end());
}

TEST(OnlineStrategy, LocalReadsAreFreeAfterReplication) {
  const Tree t = net::makeStar(3);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineOptions options;
  options.replicationThreshold = 1;
  OnlineTreeStrategy strategy(rooted, 1, 1, options);
  for (int i = 0; i < 3; ++i) strategy.serve(Request{0, 2, false});
  const auto loadAfterWarmup = strategy.loads().totalLoad();
  strategy.serve(Request{0, 2, false});
  EXPECT_EQ(strategy.loads().totalLoad(), loadAfterWarmup);  // served locally
}

TEST(OnlineStrategy, WriteContractsCopySet) {
  const Tree t = net::makeStar(4);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineOptions options;
  options.replicationThreshold = 1;
  OnlineTreeStrategy strategy(rooted, 1, 1, options);
  for (const net::NodeId reader : {2, 3, 4}) {
    for (int i = 0; i < 3; ++i) {
      strategy.serve(Request{0, reader, false});
    }
  }
  EXPECT_GT(strategy.copySet(0).size(), 1u);
  strategy.serve(Request{0, 2, true});
  EXPECT_EQ(strategy.copySet(0).size(), 1u);
  EXPECT_GT(strategy.invalidations(), 0);
}

TEST(OnlineStrategy, CopySetStaysConnected) {
  util::Rng rng(111);
  const Tree t = net::makeKaryTree(3, 2);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineOptions options;
  options.replicationThreshold = 1;
  OnlineTreeStrategy strategy(rooted, 2, t.processors().front(), options);
  for (int i = 0; i < 200; ++i) {
    const Request request{
        static_cast<workload::ObjectId>(rng.nextBelow(2)),
        t.processors()[static_cast<std::size_t>(
            rng.nextBelow(t.processors().size()))],
        rng.nextBool(0.2)};
    strategy.serve(request);
    // Connectivity check of copy set 0 via BFS.
    const auto copies = strategy.copySet(0);
    ASSERT_FALSE(copies.empty());
    std::vector<char> inSet(static_cast<std::size_t>(t.nodeCount()), 0);
    for (const net::NodeId v : copies) {
      inSet[static_cast<std::size_t>(v)] = 1;
    }
    std::vector<net::NodeId> stack{copies.front()};
    std::vector<char> seen(static_cast<std::size_t>(t.nodeCount()), 0);
    seen[static_cast<std::size_t>(copies.front())] = 1;
    std::size_t reached = 1;
    while (!stack.empty()) {
      const net::NodeId v = stack.back();
      stack.pop_back();
      for (const net::HalfEdge& he : t.neighbors(v)) {
        if (inSet[static_cast<std::size_t>(he.to)] &&
            !seen[static_cast<std::size_t>(he.to)]) {
          seen[static_cast<std::size_t>(he.to)] = 1;
          ++reached;
          stack.push_back(he.to);
        }
      }
    }
    ASSERT_EQ(reached, copies.size()) << "request " << i;
  }
}

TEST(Harness, SequenceFromWorkloadCoversAllRequests) {
  util::Rng rng(113);
  const Tree t = net::makeStar(5);
  workload::GenParams params;
  params.numObjects = 3;
  params.requestsPerProcessor = 10;
  const workload::Workload load = workload::generateUniform(t, params, rng);
  const auto requests = sequenceFromWorkload(load, rng);
  EXPECT_EQ(static_cast<workload::Count>(requests.size()),
            load.grandTotal());
}

TEST(Harness, CompetitiveRatioModestOnRandomWorkloads) {
  util::Rng rng(127);
  for (int trial = 0; trial < 8; ++trial) {
    const Tree t = net::makeRandomTree(16, 5, rng);
    const net::RootedTree rooted(t, t.defaultRoot());
    workload::GenParams params;
    params.numObjects = 4;
    params.requestsPerProcessor = 30;
    params.readFraction = 0.7;
    const workload::Workload load = workload::generate(
        static_cast<workload::Profile>(trial % 6), t, params, rng);
    const auto requests = sequenceFromWorkload(load, rng);
    const serve::ServeReport result = serveSequence(rooted, 4, requests);
    EXPECT_GT(result.congestion, 0.0);
    if (result.lowerBound > 0.0) {
      // Loose sanity bound; the bench reports the measured distribution.
      EXPECT_LT(result.ratio, 40.0) << "trial " << trial;
    } else {
      EXPECT_TRUE(std::isinf(result.ratio)) << "trial " << trial;
    }
  }
}

TEST(Harness, RatioIsTrueRatioForSubUnitLowerBounds) {
  // Bandwidth-2 edges make the offline lower bound land in (0, 1); the
  // ratio must divide by it, not by max(LB, 1) (which silently deflated
  // ratios below 1 for exactly these instances).
  net::TreeBuilder builder;
  const net::NodeId bus = builder.addBus(2.0);
  const net::NodeId writer = builder.addProcessor();
  const net::NodeId reader = builder.addProcessor();
  builder.connect(bus, writer, 2.0);
  builder.connect(bus, reader, 2.0);
  const net::Tree t = builder.build();
  const net::RootedTree rooted(t, t.defaultRoot());

  // One write from the initial location, one read from the other leaf:
  // online pays the 2-edge read path (congestion 0.5), and the offline
  // bound of the aggregated frequencies is 0.5 as well.
  const std::vector<Request> requests = {{0, writer, true},
                                         {0, reader, false}};
  const serve::ServeReport result = serveSequence(rooted, 1, requests);
  ASSERT_GT(result.lowerBound, 0.0);
  ASSERT_LT(result.lowerBound, 1.0);
  EXPECT_DOUBLE_EQ(result.ratio, result.congestion / result.lowerBound);
  EXPECT_GE(result.ratio, 1.0);
}

TEST(Harness, RatioGuardsZeroLowerBoundExplicitly) {
  const net::Tree t = net::makeStar(3);
  const net::RootedTree rooted(t, t.defaultRoot());
  // A single remote read: online pays, but with zero write contention
  // the per-edge bound is zero — the ratio must be reported as infinite,
  // not silently divided by 1.
  const serve::ServeReport paying = serveSequence(rooted, 1, {{0, 2, false}});
  EXPECT_EQ(paying.lowerBound, 0.0);
  EXPECT_GT(paying.congestion, 0.0);
  EXPECT_TRUE(std::isinf(paying.ratio));
  // No requests at all: trivially optimal.
  const serve::ServeReport idle = serveSequence(rooted, 1, {});
  EXPECT_DOUBLE_EQ(idle.ratio, 1.0);
}

TEST(Harness, PingPongSequenceShape) {
  util::Rng rng(131);
  const Tree t = net::makeClusterNetwork(2, 3);
  const auto requests = makePingPongSequence(t, 2, 5, 4, rng);
  EXPECT_EQ(requests.size(), 2u * 5u * (4u + 1u));
  int writes = 0;
  for (const Request& r : requests) writes += r.isWrite ? 1 : 0;
  EXPECT_EQ(writes, 10);
}

TEST(Harness, BucketRequestsHandlesEdgeCases) {
  // Zero objects with an empty span: offsets is the single sentinel 0.
  std::vector<std::size_t> offsets(1, 99);
  bucketRequestsByObject({}, 0, offsets, {});
  EXPECT_EQ(offsets[0], 0u);

  // Empty request span over a non-trivial object range: every run is
  // empty and every offset 0.
  offsets.assign(4, 77);
  bucketRequestsByObject({}, 3, offsets, {});
  for (const std::size_t o : offsets) EXPECT_EQ(o, 0u);

  // All requests on one object: the bucketed order is the arrival
  // order, runs of other objects are empty.
  const std::vector<Request> requests = {
      {1, 2, false}, {1, 3, true}, {1, 2, true}, {1, 4, false}};
  offsets.assign(4, 0);
  std::vector<Request> bucketed(requests.size());
  bucketRequestsByObject(requests, 3, offsets, bucketed);
  EXPECT_EQ(offsets[0], 0u);
  EXPECT_EQ(offsets[1], 0u);
  EXPECT_EQ(offsets[2], 4u);
  EXPECT_EQ(offsets[3], 4u);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    EXPECT_EQ(bucketed[i].origin, requests[i].origin) << i;
    EXPECT_EQ(bucketed[i].isWrite, requests[i].isWrite) << i;
  }

  // Out-of-range object ids are rejected loudly (both directions), as
  // are mismatched buffer sizes.
  offsets.assign(3, 0);
  std::vector<Request> two(2);
  EXPECT_THROW(bucketRequestsByObject(
                   std::vector<Request>{{2, 0, false}, {0, 0, false}}, 2,
                   offsets, two),
               std::out_of_range);
  EXPECT_THROW(bucketRequestsByObject(
                   std::vector<Request>{{-1, 0, false}, {0, 0, false}}, 2,
                   offsets, two),
               std::out_of_range);
  EXPECT_THROW(
      bucketRequestsByObject(std::vector<Request>{{0, 0, false}}, 2,
                             offsets, two),
      std::invalid_argument);
  std::vector<std::size_t> shortOffsets(2, 0);
  EXPECT_THROW(bucketRequestsByObject(two, 2, shortOffsets, two),
               std::invalid_argument);
}

TEST(Harness, RejectsBadParameters) {
  util::Rng rng(137);
  const Tree t = net::makeStar(3);
  EXPECT_THROW((void)makePingPongSequence(t, 0, 1, 1, rng),
               std::invalid_argument);
  const net::RootedTree rooted(t, t.defaultRoot());
  OnlineOptions bad;
  bad.replicationThreshold = 0;
  EXPECT_THROW(OnlineTreeStrategy(rooted, 1, 1, bad), std::invalid_argument);
}

}  // namespace
}  // namespace hbn::dynamic
