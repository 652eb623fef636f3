// Tests for the unified online-policy engine: registry specs (shared
// grammar, nested strategy specs, error vocabulary), the behaviour of
// every built-in policy against hand-computable oracles, tree-counters
// bit-identity with the underlying counter strategy, and the epoch
// server's policy plumbing (migratable() gating, report metrics).
#include <algorithm>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/engine/registry.h"
#include "hbn/net/generators.h"
#include "hbn/net/steiner.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/rng.h"

namespace hbn::dynamic {
namespace {

using core::Count;
using core::LoadMap;

std::unique_ptr<OnlinePolicy> buildPolicy(const std::string& spec,
                                          const net::RootedTree& rooted,
                                          int numObjects,
                                          net::NodeId initialLocation) {
  return OnlinePolicyRegistry::global().create(spec)->build(
      rooted, numObjects, initialLocation);
}

/// Oracle edge loads of a frozen copy configuration: every request
/// charges the origin→nearest-copy path, writes additionally charge the
/// copy set's Steiner tree — the paper's static load model evaluated
/// the slow, obvious way (per-node BFS distances).
LoadMap frozenOracle(const net::RootedTree& rooted,
                     std::span<const net::NodeId> copies,
                     const std::vector<Request>& requests) {
  const net::Tree& tree = rooted.tree();
  LoadMap loads(tree.edgeCount());
  const std::vector<net::EdgeId> steiner = net::steinerEdges(rooted, copies);
  // Nearest copy by multi-source BFS (ascending seed order — the same
  // deterministic tie-break the policies use).
  std::vector<net::NodeId> gate(static_cast<std::size_t>(tree.nodeCount()),
                                net::kInvalidNode);
  std::vector<net::NodeId> sorted(copies.begin(), copies.end());
  std::sort(sorted.begin(), sorted.end());
  std::vector<net::NodeId> queue(sorted.begin(), sorted.end());
  for (const net::NodeId c : sorted) gate[static_cast<std::size_t>(c)] = c;
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const net::NodeId v = queue[head];
    for (const net::HalfEdge& half : tree.neighbors(v)) {
      if (gate[static_cast<std::size_t>(half.to)] == net::kInvalidNode) {
        gate[static_cast<std::size_t>(half.to)] =
            gate[static_cast<std::size_t>(v)];
        queue.push_back(half.to);
      }
    }
  }
  const auto chargePath = [&](net::NodeId from, net::NodeId to) {
    // Walk up from both ends to the LCA, the long way.
    while (from != to) {
      if (rooted.depth(from) >= rooted.depth(to)) {
        loads.addEdgeLoad(rooted.parentEdge(from), 1);
        from = rooted.parent(from);
      } else {
        loads.addEdgeLoad(rooted.parentEdge(to), 1);
        to = rooted.parent(to);
      }
    }
  };
  for (const Request& request : requests) {
    chargePath(request.origin,
               gate[static_cast<std::size_t>(request.origin)]);
    if (request.isWrite) {
      for (const net::EdgeId e : steiner) loads.addEdgeLoad(e, 1);
    }
  }
  return loads;
}

std::vector<Request> randomRequests(const net::Tree& tree, int numObjects,
                                    int count, double writeFraction,
                                    util::Rng& rng) {
  std::vector<Request> requests;
  requests.reserve(static_cast<std::size_t>(count));
  const auto procs = tree.processors();
  for (int i = 0; i < count; ++i) {
    requests.push_back(Request{
        static_cast<ObjectId>(rng.nextBelow(
            static_cast<std::uint64_t>(numObjects))),
        procs[static_cast<std::size_t>(rng.nextBelow(procs.size()))],
        rng.nextBool(writeFraction)});
  }
  return requests;
}

/// Serves `requests` through `policy` shard-by-shard and returns the
/// merged loads (the serving engine's object loop in miniature).
LoadMap serveAll(OnlinePolicy& policy, const net::Tree& tree, int numObjects,
                 const std::vector<Request>& requests, bool useAccumulator) {
  std::vector<std::size_t> offsets(static_cast<std::size_t>(numObjects) + 1);
  std::vector<Request> bucketed(requests.size());
  bucketRequestsByObject(requests, numObjects, offsets, bucketed);
  LoadMap loads(tree.edgeCount());
  core::FlatLoadAccumulator acc(policy.flatView());
  ServeScratch scratch;
  for (ObjectId x = 0; x < numObjects; ++x) {
    const std::size_t begin = offsets[static_cast<std::size_t>(x)];
    const std::size_t end = offsets[static_cast<std::size_t>(x) + 1];
    if (begin == end) continue;
    (void)policy.serveShard(
        x, std::span<const Request>(bucketed.data() + begin, end - begin),
        loads, scratch, useAccumulator ? &acc : nullptr);
  }
  return loads;
}

TEST(OnlinePolicyRegistry, ListsBuiltinsAndSharesSpecGrammar) {
  const auto names = OnlinePolicyRegistry::global().names();
  EXPECT_GE(names.size(), 4u);
  for (const char* expected :
       {"tree-counters", "static", "full-replication", "owner-only"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end())
        << expected;
  }
  // Unknown names name the kind and the alternatives; unknown options
  // are rejected after the factory ran — the shared SpecRegistry
  // vocabulary.
  try {
    (void)OnlinePolicyRegistry::global().create("nope");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown policy"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("tree-counters"),
              std::string::npos);
  }
  EXPECT_THROW((void)OnlinePolicyRegistry::global().create(
                   "tree-counters:bogus=1"),
               std::invalid_argument);
  // Aliases resolve like strategy aliases do.
  EXPECT_NO_THROW((void)OnlinePolicyRegistry::global().create(
      "counters:threshold=3"));
}

TEST(OnlinePolicyRegistry, NestedStrategySpecsResolveAtParseTime) {
  // `static:placement=SPEC` composes the policy and strategy
  // registries; the nested spec is validated when the policy spec is
  // parsed, not at the first drift handoff.
  EXPECT_NO_THROW((void)OnlinePolicyRegistry::global().create(
      "static:placement=extended-nibble:deletion=0"));
  EXPECT_THROW(
      (void)OnlinePolicyRegistry::global().create("static:placement=typo"),
      std::invalid_argument);
  // The split helper keeps the nested colon intact.
  const engine::SpecParts parts =
      engine::splitSpec("static:placement=extended-nibble:deletion=0");
  EXPECT_EQ(parts.name, "static");
  EXPECT_EQ(parts.options, "placement=extended-nibble:deletion=0");
}

TEST(OnlinePolicy, TreeCountersMatchesUnderlyingStrategy) {
  util::Rng rng(7);
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 6;
  const std::vector<Request> requests =
      randomRequests(tree, numObjects, 4000, 0.3, rng);

  OnlineOptions options;
  options.replicationThreshold = 3;
  OnlineTreeStrategy strategy(rooted, numObjects, tree.processors().front(),
                              options);
  for (const Request& request : requests) strategy.serve(request);

  const auto policy = buildPolicy("tree-counters:threshold=3", rooted,
                                  numObjects, tree.processors().front());
  EXPECT_EQ(policy->name(), "tree-counters");
  const LoadMap loads =
      serveAll(*policy, tree, numObjects, requests, /*useAccumulator=*/true);
  for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
    EXPECT_EQ(loads.edgeLoad(e), strategy.loads().edgeLoad(e)) << "edge "
                                                               << e;
  }
  for (ObjectId x = 0; x < numObjects; ++x) {
    EXPECT_EQ(policy->copySet(x), strategy.copySet(x)) << "object " << x;
  }
  const auto metrics = policy->metrics();
  EXPECT_EQ(metrics.at("policy.threshold"), 3.0);
  EXPECT_TRUE(policy->migratable());
}

TEST(OnlinePolicy, OwnerOnlyChargesPathsToTheOwner) {
  util::Rng rng(11);
  const net::Tree tree = net::makeCaterpillar(3, 2);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 3;
  const net::NodeId owner = tree.processors().front();
  const std::vector<Request> requests =
      randomRequests(tree, numObjects, 500, 0.4, rng);

  for (const bool useAcc : {false, true}) {
    const auto policy =
        buildPolicy("owner-only", rooted, numObjects, owner);
    EXPECT_FALSE(policy->migratable());
    const LoadMap loads =
        serveAll(*policy, tree, numObjects, requests, useAcc);
    const LoadMap oracle =
        frozenOracle(rooted, std::span(&owner, 1), requests);
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      EXPECT_EQ(loads.edgeLoad(e), oracle.edgeLoad(e))
          << "edge " << e << " acc=" << useAcc;
    }
    EXPECT_EQ(policy->copySet(1), std::vector<net::NodeId>{owner});
  }
}

TEST(OnlinePolicy, FullReplicationReadsLocalWritesBroadcast) {
  util::Rng rng(13);
  const net::Tree tree = net::makeClusterNetwork(2, 3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 2;
  const std::vector<Request> requests =
      randomRequests(tree, numObjects, 600, 0.25, rng);

  const auto policy = buildPolicy("full-replication", rooted, numObjects,
                                  tree.processors().front());
  const LoadMap loads =
      serveAll(*policy, tree, numObjects, requests, /*useAccumulator=*/true);
  const std::vector<net::NodeId> procs(tree.processors().begin(),
                                       tree.processors().end());
  const LoadMap oracle = frozenOracle(rooted, procs, requests);
  Count writes = 0;
  for (const Request& request : requests) writes += request.isWrite ? 1 : 0;
  for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
    EXPECT_EQ(loads.edgeLoad(e), oracle.edgeLoad(e)) << "edge " << e;
    // Every edge lies on the all-processors Steiner tree, and
    // processor-origin reads are free: per-edge load is exactly the
    // write count.
    EXPECT_EQ(loads.edgeLoad(e), writes) << "edge " << e;
  }
  EXPECT_THROW(policy->resetCopySet(0, procs), std::logic_error);
}

TEST(OnlinePolicy, StaticServesFrozenPossiblyDisconnectedCopySets) {
  util::Rng rng(17);
  const net::Tree tree = net::makeClusterNetwork(2, 2);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 2;
  const std::vector<Request> requests =
      randomRequests(tree, numObjects, 400, 0.5, rng);

  const auto policy = buildPolicy("static:placement=extended-nibble",
                                  rooted, numObjects,
                                  tree.processors().front());
  EXPECT_TRUE(policy->migratable());
  // Freeze object copies on two processors in *different* clusters — a
  // disconnected copy set, which the counter strategy's connected-
  // subtree machinery could not serve but the frozen gate tables can.
  const auto procs = tree.processors();
  const std::vector<net::NodeId> copies = {procs[0], procs[3]};
  for (ObjectId x = 0; x < numObjects; ++x) {
    policy->resetCopySet(x, copies);
    EXPECT_EQ(policy->copySet(x), copies);
  }
  for (const bool useAcc : {false, true}) {
    // Rebuild per pass: serving does not mutate frozen state, but keep
    // the two passes independent anyway.
    const auto fresh = buildPolicy("static", rooted, numObjects, procs[0]);
    for (ObjectId x = 0; x < numObjects; ++x) {
      fresh->resetCopySet(x, copies);
    }
    const LoadMap loads =
        serveAll(*fresh, tree, numObjects, requests, useAcc);
    const LoadMap oracle = frozenOracle(rooted, copies, requests);
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      EXPECT_EQ(loads.edgeLoad(e), oracle.edgeLoad(e))
          << "edge " << e << " acc=" << useAcc;
    }
  }
  // The handoff targets come from the nested strategy and cover every
  // object.
  auto aggregated =
      std::make_shared<workload::Workload>(numObjects, tree.nodeCount());
  for (const Request& request : requests) {
    if (request.isWrite) {
      aggregated->addWrites(request.object, request.origin, 1);
    } else {
      aggregated->addReads(request.object, request.origin, 1);
    }
  }
  engine::Context ctx;
  const core::Placement placement =
      engine::StrategyRegistry::global().create("extended-nibble")->place(
          tree, *aggregated, ctx);
  ASSERT_EQ(placement.numObjects(), numObjects);
  const auto pass = policy->beginHandoff(aggregated, 1);
  for (ObjectId x = 0; x < numObjects; ++x) {
    const std::vector<net::NodeId> target = pass->target(x, 0);
    EXPECT_FALSE(target.empty());
    EXPECT_EQ(target,
              placement.objects[static_cast<std::size_t>(x)].locations());
  }
}

TEST(OnlinePolicy, CompetitiveRunsAcceptPolicySpecs) {
  util::Rng rng(23);
  const net::Tree tree = net::makeClusterNetwork(2, 3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const std::vector<Request> requests =
      randomRequests(tree, 4, 2000, 0.2, rng);
  // A competitive run: the serving engine with the drift handoff off.
  const auto serveWith = [&](const std::string& spec) {
    serve::ServeOptions options;
    options.threads = 1;
    options.replaceDrift = 0.0;
    options.policy = spec;
    serve::EpochServer server(rooted, 4, options);
    serve::VectorStream stream(requests);
    return server.serve(stream);
  };

  // Every registered policy runs through the same engine; the frozen
  // foils bracket the counter scheme's traffic profile.
  for (const char* spec :
       {"static:placement=extended-nibble", "full-replication",
        "owner-only"}) {
    const serve::ServeReport result = serveWith(spec);
    EXPECT_GT(result.congestion, 0.0) << spec;
    EXPECT_EQ(result.replications, 0) << spec;
  }
  EXPECT_THROW((void)serveWith("nope"), std::invalid_argument);
}

TEST(EpochServerPolicy, ReportCarriesPolicySpecAndMetrics) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 16;
  const auto stream =
      serve::makeGeneratedStream("skewed", tree, params, 3, 5'000);
  serve::ServeOptions options;
  options.epochSize = 1 << 10;
  options.policy = "tree-counters:threshold=4";
  serve::EpochServer server(rooted, params.numObjects, options);
  const serve::ServeReport report = server.serve(*stream);
  EXPECT_EQ(report.policy, "tree-counters:threshold=4");
  EXPECT_EQ(report.policyMetrics.at("policy.threshold"), 4.0);
  EXPECT_EQ(server.policy().name(), "tree-counters");
}

TEST(EpochServerPolicy, NonMigratablePoliciesNeverReplace) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 32;
  for (const char* spec : {"full-replication", "owner-only"}) {
    const auto stream =
        serve::makeGeneratedStream("skewed", tree, params, 5, 20'000);
    serve::ServeOptions options;
    options.epochSize = 1 << 11;
    options.replaceDrift = 0.1;  // would fire every epoch if allowed
    options.policy = spec;
    serve::EpochServer server(rooted, params.numObjects, options);
    const serve::ServeReport report = server.serve(*stream);
    EXPECT_EQ(report.replacements, 0u) << spec;
    EXPECT_EQ(report.totalRequests, 20'000u) << spec;
  }
}

TEST(EpochServerPolicy, StaticPolicyBitIdenticalAcrossThreadCounts) {
  const net::Tree tree = net::makeClusterNetwork(4, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 64;
  const auto run = [&](int threads) {
    const auto stream =
        serve::makeGeneratedStream("bursty", tree, params, 29, 40'000);
    serve::ServeOptions options;
    options.epochSize = 1 << 12;
    options.threads = threads;
    options.replaceDrift = 1.5;  // exercise the handoff path
    options.policy = "static:placement=extended-nibble";
    serve::EpochServer server(rooted, params.numObjects, options);
    const serve::ServeReport report = server.serve(*stream);
    std::ostringstream oss;
    oss.precision(17);
    oss << report.congestion << '|' << report.replacements;
    for (const core::Count load : server.loads().edgeLoads()) {
      oss << ',' << load;
    }
    for (ObjectId x = 0; x < params.numObjects; ++x) {
      oss << ';';
      for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
    }
    return oss.str();
  };
  const std::string sequential = run(1);
  EXPECT_EQ(sequential, run(2));
  EXPECT_EQ(sequential, run(5));
}

}  // namespace
}  // namespace hbn::dynamic
