// Tests for the congestion lower bounds, in particular the per-object
// bound from the τ_max analysis and its validity against the exact
// optimum.
#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/baseline/exact.h"
#include "hbn/core/extended_nibble.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/dynamic/harness.h"
#include "hbn/workload/generators.h"

namespace hbn::core {
namespace {

using net::Tree;

TEST(ObjectLowerBound, TwoBalancedWriters) {
  // Two writers of 10 each: single copy at either leaves 10 remote, two
  // copies force κ=20 on a leaf edge -> bound = min(20, 10) = 10.
  const Tree t = net::makeStar(4);
  workload::Workload load(1, t.nodeCount());
  load.addWrites(0, 1, 10);
  load.addWrites(0, 2, 10);
  EXPECT_DOUBLE_EQ(objectLowerBound(t, load), 10.0);
}

TEST(ObjectLowerBound, DominantLeafGivesSmallBound) {
  // One leaf issues nearly everything: a single local copy is cheap, so
  // the per-object bound must stay small.
  const Tree t = net::makeStar(4);
  workload::Workload load(1, t.nodeCount());
  load.addWrites(0, 1, 100);
  load.addWrites(0, 2, 3);
  EXPECT_DOUBLE_EQ(objectLowerBound(t, load), 3.0);  // min(103, 103-100)
}

TEST(ObjectLowerBound, ReadOnlyObjectContributesNothing) {
  const Tree t = net::makeStar(4);
  workload::Workload load(1, t.nodeCount());
  for (const net::NodeId p : t.processors()) {
    load.addReads(0, p, 50);
  }
  EXPECT_DOUBLE_EQ(objectLowerBound(t, load), 0.0);  // κ = 0
}

TEST(ObjectLowerBound, RequiresUnitLeafEdges) {
  net::TreeBuilder b;
  const net::NodeId bus = b.addBus();
  const net::NodeId p1 = b.addProcessor();
  const net::NodeId p2 = b.addProcessor();
  b.connect(bus, p1, 4.0);  // non-unit leaf switch
  b.connect(bus, p2, 4.0);
  const Tree t = b.build();
  workload::Workload load(1, t.nodeCount());
  load.addWrites(0, p1, 10);
  load.addWrites(0, p2, 10);
  EXPECT_DOUBLE_EQ(objectLowerBound(t, load), 0.0);
}

TEST(LowerBound, CombinedNeverExceedsExactOptimum) {
  util::Rng rng(311);
  for (int trial = 0; trial < 12; ++trial) {
    const Tree t =
        trial % 2 == 0 ? net::makeStar(5) : net::makeClusterNetwork(2, 2);
    workload::GenParams params;
    params.numObjects = 3;
    params.requestsPerProcessor = 10;
    const workload::Workload load = workload::generate(
        static_cast<workload::Profile>(trial % 6), t, params, rng);
    const net::RootedTree rooted(t, t.defaultRoot());
    baseline::ExactOptions options;
    options.maxCopiesPerObject = 2;
    const baseline::ExactResult opt = baseline::solveExact(t, load, options);
    ASSERT_TRUE(opt.provedOptimal);
    EXPECT_LE(combinedLowerBound(rooted, load), opt.congestion + 1e-9)
        << "trial " << trial;
  }
}

TEST(LowerBound, CombinedAtLeastAnalytic) {
  util::Rng rng(313);
  for (int trial = 0; trial < 10; ++trial) {
    const Tree t = net::makeRandomTree(20, 6, rng);
    workload::GenParams params;
    params.numObjects = 6;
    const workload::Workload load = workload::generate(
        static_cast<workload::Profile>(trial % 6), t, params, rng);
    const net::RootedTree rooted(t, t.defaultRoot());
    EXPECT_GE(combinedLowerBound(rooted, load),
              analyticLowerBound(rooted, load).congestion);
  }
}

TEST(LowerBound, FatTreeNeedsObjectBound) {
  // Regression for the fat-tree corner where the per-edge bound alone
  // under-estimates C_opt by more than 7x: the combined bound must keep
  // the extended-nibble ratio within the theorem.
  util::Rng rng(104729ULL * 101 + 0);  // the sweep seed that exposed it
  net::BandwidthModel bw;
  bw.fatTree = true;
  const Tree t = net::makeFamilyMember(net::TopologyFamily::kary, 36, rng, bw);
  workload::GenParams params;
  params.numObjects = 8;
  params.requestsPerProcessor = 24;
  params.readFraction = 0.0;
  const workload::Workload load =
      workload::generateHotspot(t, params, rng);
  const net::RootedTree rooted(t, t.defaultRoot());
  const auto result = extendedNibble(t, load);
  const double combined = combinedLowerBound(rooted, load);
  ASSERT_GT(combined, 0.0);
  EXPECT_LE(result.report.congestionFinal, 7.0 * combined);
  EXPECT_GE(combined, analyticLowerBound(rooted, load).congestion);
}

TEST(IncrementalLowerBound, MatchesFullRecomputationUnderRowUpdates) {
  // The streaming engine's per-epoch bound: start empty, mutate random
  // object rows in batches (remove before, add after, as the epoch
  // server does), and demand bit-identical edge minima and congestion
  // against a from-scratch analyticLowerBound at every step.
  util::Rng rng(977);
  const Tree t = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(t, t.defaultRoot());
  constexpr int kObjects = 16;
  workload::Workload load(kObjects, t.nodeCount());
  IncrementalLowerBound incremental(rooted);
  incremental.rebuild(load);

  for (int step = 0; step < 40; ++step) {
    const auto touched = static_cast<int>(1 + rng.nextBelow(5));
    std::vector<workload::ObjectId> objects;
    for (int i = 0; i < touched; ++i) {
      objects.push_back(
          static_cast<workload::ObjectId>(rng.nextBelow(kObjects)));
    }
    std::sort(objects.begin(), objects.end());
    objects.erase(std::unique(objects.begin(), objects.end()),
                  objects.end());
    for (const workload::ObjectId x : objects) incremental.remove(x, load);
    for (const workload::ObjectId x : objects) {
      const auto node =
          static_cast<net::NodeId>(rng.nextBelow(t.nodeCount()));
      if (rng.nextBelow(2) == 0) {
        load.addWrites(x, node, 1 + static_cast<core::Count>(
                                        rng.nextBelow(20)));
      } else {
        load.addReads(x, node, 1 + static_cast<core::Count>(
                                       rng.nextBelow(20)));
      }
    }
    for (const workload::ObjectId x : objects) incremental.add(x, load);

    const LowerBound full = analyticLowerBound(rooted, load);
    ASSERT_EQ(std::vector<Count>(incremental.edgeMinima().edgeLoads().begin(),
                                 incremental.edgeMinima().edgeLoads().end()),
              std::vector<Count>(full.edgeMinima.edgeLoads().begin(),
                                 full.edgeMinima.edgeLoads().end()))
        << "step " << step;
    ASSERT_DOUBLE_EQ(incremental.congestion(), full.congestion)
        << "step " << step;
  }

  // rebuild() from a populated workload must land on the same state.
  IncrementalLowerBound rebuilt(rooted);
  rebuilt.rebuild(load);
  EXPECT_DOUBLE_EQ(rebuilt.congestion(), incremental.congestion());
}

TEST(IncrementalLowerBound, ObjectAbsorptionOnTwoThreadsMatchesFullBound) {
  // The epoch server's split aggregation: each epoch is bucketed by
  // object, cut at arbitrary points into two ranges, and every object of
  // a range is absorbed by that range's thread into its own delta; the
  // deltas merge after the join. After every epoch the bound must equal
  // a from-scratch analyticLowerBound of the aggregated matrix.
  util::Rng rng(4242);
  const Tree t = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(t, t.defaultRoot());
  constexpr int kObjects = 40;
  workload::Workload load(kObjects, t.nodeCount());
  IncrementalLowerBound incremental(rooted);
  incremental.rebuild(load);
  const auto procs = t.processors();

  std::vector<LoadMap> deltas(2, LoadMap(t.edgeCount()));
  std::vector<std::vector<Count>> scratch(2);
  for (int epoch = 0; epoch < 30; ++epoch) {
    std::vector<workload::RequestEvent> events(1 + rng.nextBelow(400));
    for (workload::RequestEvent& ev : events) {
      // Skewed towards low ids, so some objects repeat and some stay
      // untouched.
      ev.object = static_cast<workload::ObjectId>(
          rng.nextBelow(1 + rng.nextBelow(kObjects)));
      ev.origin = procs[static_cast<std::size_t>(
          rng.nextBelow(procs.size()))];
      ev.isWrite = rng.nextBool(0.3);
    }
    std::vector<std::size_t> offsets(kObjects + 1);
    std::vector<workload::RequestEvent> bucketed(events.size());
    dynamic::bucketRequestsByObject(events, kObjects, offsets, bucketed);
    const auto middle =
        static_cast<workload::ObjectId>(rng.nextBelow(kObjects + 1));
    const std::vector<workload::ObjectId> cuts = {0, middle, kObjects};
    for (LoadMap& delta : deltas) delta.clear();
    parallelForRanges(cuts, [&](workload::ObjectId first,
                                workload::ObjectId last, int worker) {
      for (workload::ObjectId x = first; x < last; ++x) {
        const std::size_t begin = offsets[static_cast<std::size_t>(x)];
        const std::size_t end = offsets[static_cast<std::size_t>(x) + 1];
        if (begin == end) continue;
        incremental.absorbObject(
            x,
            std::span<const workload::RequestEvent>(bucketed.data() + begin,
                                                    end - begin),
            load, deltas[static_cast<std::size_t>(worker)],
            scratch[static_cast<std::size_t>(worker)]);
      }
    });
    for (const LoadMap& delta : deltas) incremental.mergeDelta(delta);

    const LowerBound full = analyticLowerBound(rooted, load);
    ASSERT_EQ(std::vector<Count>(incremental.edgeMinima().edgeLoads().begin(),
                                 incremental.edgeMinima().edgeLoads().end()),
              std::vector<Count>(full.edgeMinima.edgeLoads().begin(),
                                 full.edgeMinima.edgeLoads().end()))
        << "epoch " << epoch;
    ASSERT_DOUBLE_EQ(incremental.congestion(), full.congestion)
        << "epoch " << epoch;
  }
  EXPECT_GT(incremental.congestion(), 0.0);
}

}  // namespace
}  // namespace hbn::core
