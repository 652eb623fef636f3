// Tests for topology generators: every family must produce valid
// hierarchical bus networks with the promised shapes. Also the request
// stream generators' batched fill and the alias sampler they draw from,
// both pinned to the per-event sequence.
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/net/rooted.h"
#include "hbn/util/alias.h"
#include "hbn/util/rng.h"
#include "hbn/workload/generators.h"

namespace hbn::net {
namespace {

TEST(Generators, KaryTreeShape) {
  const Tree t = makeKaryTree(3, 2);
  // 1 root bus + 3 child buses + 9 processors.
  EXPECT_EQ(t.busCount(), 4);
  EXPECT_EQ(t.processorCount(), 9);
  // Root bus -> child bus -> processor: two hops.
  EXPECT_EQ(t.heightFrom(t.defaultRoot()), 2);
}

TEST(Generators, KaryHeightOneIsStar) {
  const Tree t = makeKaryTree(5, 1);
  EXPECT_EQ(t.busCount(), 1);
  EXPECT_EQ(t.processorCount(), 5);
}

TEST(Generators, KaryRejectsBadParameters) {
  EXPECT_THROW(makeKaryTree(1, 2), std::invalid_argument);
  EXPECT_THROW(makeKaryTree(2, 0), std::invalid_argument);
}

TEST(Generators, FatTreeBandwidthsGrowTowardsRoot) {
  BandwidthModel bw;
  bw.fatTree = true;
  const Tree t = makeKaryTree(2, 3, bw);
  const RootedTree r(t, 0);
  // Root bus covers 8 processors, its children 4 each.
  EXPECT_DOUBLE_EQ(t.busBandwidth(0), 8.0);
  for (const NodeId c : r.children(0)) {
    if (t.isBus(c)) {
      EXPECT_DOUBLE_EQ(t.busBandwidth(c), 4.0);
    }
  }
  // Leaf switches stay at bandwidth 1 (the paper's model).
  EXPECT_TRUE(t.usesUnitLeafEdges());
}

TEST(Generators, StarShape) {
  const Tree t = makeStar(7, 42.0);
  EXPECT_EQ(t.busCount(), 1);
  EXPECT_EQ(t.processorCount(), 7);
  EXPECT_DOUBLE_EQ(t.busBandwidth(t.buses()[0]), 42.0);
}

TEST(Generators, CaterpillarShape) {
  const Tree t = makeCaterpillar(5, 2);
  EXPECT_EQ(t.busCount(), 5);
  EXPECT_EQ(t.processorCount(), 10);
  // Height from an end bus: 4 bus hops + 1 leaf edge.
  EXPECT_EQ(t.heightFrom(t.buses()[0]), 5);
}

TEST(Generators, RandomTreeIsValidAndDeterministic) {
  util::Rng rng1(99);
  util::Rng rng2(99);
  const Tree a = makeRandomTree(40, 10, rng1);
  const Tree b = makeRandomTree(40, 10, rng2);
  EXPECT_EQ(a.nodeCount(), b.nodeCount());
  EXPECT_EQ(a.processorCount(), 40);
  EXPECT_EQ(a.busCount(), 10);
  for (EdgeId e = 0; e < a.edgeCount(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

TEST(Generators, RandomTreePadsProcessorsForValidity) {
  util::Rng rng(7);
  // Fewer processors than buses would leave leaf buses; generator pads.
  const Tree t = makeRandomTree(2, 6, rng);
  EXPECT_GE(t.processorCount(), 6);
}

TEST(Generators, ClusterNetworkShape) {
  const Tree t = makeClusterNetwork(4, 3);
  EXPECT_EQ(t.busCount(), 5);  // root + 4 clusters
  EXPECT_EQ(t.processorCount(), 12);
  EXPECT_EQ(t.heightFrom(t.defaultRoot()), 2);
}

TEST(Generators, FamilyMemberHitsTargetSize) {
  util::Rng rng(5);
  for (const TopologyFamily family :
       {TopologyFamily::kary, TopologyFamily::star, TopologyFamily::caterpillar,
        TopologyFamily::random, TopologyFamily::cluster}) {
    const Tree t = makeFamilyMember(family, 50, rng);
    EXPECT_GE(t.processorCount(), 10)
        << topologyFamilyName(family);
    EXPECT_LE(t.processorCount(), 100) << topologyFamilyName(family);
  }
}

TEST(Generators, FamilyNames) {
  EXPECT_STREQ(topologyFamilyName(TopologyFamily::kary), "kary");
  EXPECT_STREQ(topologyFamilyName(TopologyFamily::cluster), "cluster");
}

// FNV-1a over 64-bit words: a compact fingerprint of a draw sequence.
struct Fingerprint {
  std::uint64_t hash = 1469598103934665603ULL;
  void mix(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (value >> (8 * i)) & 0xff;
      hash *= 1099511628211ULL;
    }
  }
};

workload::StreamParams streamParams() {
  workload::StreamParams params;
  params.numObjects = 97;
  params.burstLength = 50;
  params.period = 3000;
  params.phaseLength = 1500;
  return params;
}

std::uint64_t fingerprint(std::span<const workload::RequestEvent> events) {
  Fingerprint f;
  for (const workload::RequestEvent& ev : events) {
    f.mix(static_cast<std::uint64_t>(ev.object));
    f.mix(static_cast<std::uint64_t>(ev.origin));
    f.mix(ev.isWrite ? 1 : 0);
  }
  return f.hash;
}

// generate(span) must hand out exactly the events repeated next() calls
// would: in uneven batches that straddle re-seed block boundaries, and
// after a seek(). Each stream's first 10000 events also match the
// fingerprint recorded before the batched fill existed.
template <typename Stream>
void expectBatchedFillMatchesNext(std::uint64_t golden) {
  const Tree tree = makeClusterNetwork(3, 4);
  const workload::StreamParams params = streamParams();
  constexpr std::size_t kEvents = 3 * workload::kStreamReseedBlock + 123;
  Stream single(tree, params, 11);
  std::vector<workload::RequestEvent> expected(kEvents);
  for (workload::RequestEvent& ev : expected) ev = single.next();

  Stream batched(tree, params, 11);
  std::vector<workload::RequestEvent> got(kEvents);
  std::size_t filled = 0;
  for (std::size_t chunk = 1; filled < kEvents; chunk = chunk * 3 + 7) {
    const std::size_t n = std::min(chunk, kEvents - filled);
    batched.generate(std::span<workload::RequestEvent>(got).subspan(filled, n));
    filled += n;
  }
  for (std::size_t i = 0; i < kEvents; ++i) {
    ASSERT_EQ(got[i].object, expected[i].object) << i;
    ASSERT_EQ(got[i].origin, expected[i].origin) << i;
    ASSERT_EQ(got[i].isWrite, expected[i].isWrite) << i;
  }

  // After a seek into the middle of a block, a batch spanning the next
  // block boundary still matches.
  const std::size_t from = workload::kStreamReseedBlock + 1000;
  Stream seeked(tree, params, 11);
  seeked.seek(from);
  std::vector<workload::RequestEvent> tail(kEvents - from);
  seeked.generate(tail);
  for (std::size_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(tail[i].object, expected[from + i].object) << from + i;
    ASSERT_EQ(tail[i].origin, expected[from + i].origin) << from + i;
    ASSERT_EQ(tail[i].isWrite, expected[from + i].isWrite) << from + i;
  }

  Stream fresh(tree, params, 11);
  std::vector<workload::RequestEvent> first(10'000);
  fresh.generate(first);
  EXPECT_EQ(fingerprint(first), golden);
}

TEST(StreamGenerators, BatchedFillMatchesRepeatedNext) {
  expectBatchedFillMatchesNext<workload::SkewedStream>(0xf9d78793641fe565ULL);
  expectBatchedFillMatchesNext<workload::BurstyStream>(0x03d62d928e1abf03ULL);
  expectBatchedFillMatchesNext<workload::DiurnalStream>(0xfed52dbf542246a9ULL);
  expectBatchedFillMatchesNext<workload::PhaseShiftStream>(
      0x5a1d67d7171caafaULL);
}

TEST(AliasTable, SampleSequenceIsPinned) {
  // The first 4096 draws over Zipf(1.1) weights at a fixed seed, as
  // recorded from the branching sampler: the branch-free pick must make
  // the same two draws in the same order and return the same indices.
  std::vector<double> weights(1000);
  for (std::size_t i = 0; i < weights.size(); ++i) {
    weights[i] = 1.0 / std::pow(static_cast<double>(i + 1), 1.1);
  }
  const util::AliasTable table(weights);
  util::Rng rng(2024);
  const std::vector<std::size_t> leading = {54, 72, 9, 0, 556, 6, 21, 9};
  Fingerprint f;
  for (std::size_t i = 0; i < 4096; ++i) {
    const std::size_t draw = table.sample(rng);
    if (i < leading.size()) {
      EXPECT_EQ(draw, leading[i]) << i;
    }
    f.mix(draw);
  }
  EXPECT_EQ(f.hash, 0x6e9b505e1b8b3fd5ULL);
}

}  // namespace
}  // namespace hbn::net
