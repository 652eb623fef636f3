// End-to-end tests for the sharded serving engine (hbn/shard/):
// digest identity with the single-process EpochServer for every
// registered policy and worker count, socket-transport equivalence via
// exec'd worker processes (this binary re-executed; see
// worker_gtest_main.cpp), cross-wire error propagation with stage
// attribution, worker-side request validation, the peer watchdog, and
// coordinator option validation.
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/shard/transport.h"
#include "hbn/shard/wire.h"
#include "hbn/shard/worker.h"
#include "hbn/util/fault.h"

namespace hbn::shard {
namespace {

constexpr std::uint64_t kRequests = 12'000;
constexpr std::size_t kEpoch = 2048;
constexpr int kObjects = 64;
constexpr std::uint64_t kSeed = 5;

net::Tree testTree() { return net::makeClusterNetwork(3, 4); }

std::vector<workload::RequestEvent> makeEvents(const net::Tree& tree) {
  workload::StreamParams params;
  params.numObjects = kObjects;
  const auto stream = serve::makeGeneratedStream("skewed", tree, params,
                                                 kSeed, kRequests);
  std::vector<workload::RequestEvent> events(kRequests);
  std::size_t have = 0;
  while (have < events.size()) {
    const std::size_t got = stream->fill(std::span<workload::RequestEvent>(
        events.data() + have, events.size() - have));
    if (got == 0) break;
    have += got;
  }
  events.resize(have);
  return events;
}

std::string singleProcessDigest(
    const net::Tree& tree,
    const std::vector<workload::RequestEvent>& events,
    const std::string& policy) {
  const net::RootedTree rooted(tree, tree.defaultRoot());
  serve::VectorStream stream(events);
  serve::ServeOptions options;
  options.epochSize = kEpoch;
  options.threads = 1;
  options.policy = policy;
  serve::EpochServer server(rooted, kObjects, options);
  const serve::ServeReport report = server.serve(stream);
  return serve::stateDigest(report, server.loads());
}

ShardOptions baseOptions(const std::string& policy) {
  ShardOptions options;
  options.serve.epochSize = kEpoch;
  options.serve.threads = 1;
  options.serve.policy = policy;
  options.partitionSeed = kSeed;
  return options;
}

std::string shardedDigest(const net::Tree& tree,
                          const std::vector<workload::RequestEvent>& events,
                          const std::string& policy, ShardCluster& cluster,
                          const Partition::Kind partition =
                              Partition::Kind::Hash) {
  ShardOptions options = baseOptions(policy);
  options.partition = partition;
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, options, cluster.links(),
                               "test");
  const ShardedReport report = coordinator.serve(stream);
  cluster.join();
  return serve::stateDigest(report, coordinator.loads());
}

// The core identity: for every registered policy, sharded serving over
// 1, 2 and 4 loopback workers reproduces the single-process engine's
// loads and counters bit-for-bit — under both partition kinds.
TEST(ShardServing, BitIdenticalToSingleProcessForEveryPolicy) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  for (const std::string& policy :
       dynamic::OnlinePolicyRegistry::global().names()) {
    const std::string reference =
        singleProcessDigest(tree, events, policy);
    for (const int workers : {1, 2, 4}) {
      for (const Partition::Kind kind :
           {Partition::Kind::Hash, Partition::Kind::Range}) {
        auto cluster = makeLoopbackCluster(workers);
        EXPECT_EQ(shardedDigest(tree, events, policy, *cluster, kind),
                  reference)
            << policy << " diverged at " << workers << " workers ("
            << partitionKindName(kind) << " partition)";
      }
    }
  }
}

// The socket transport (exec'd worker processes over Unix sockets, the
// launcher hbn_serve ships) must produce the same bits as in-process
// loopback and as the single-process engine.
TEST(ShardServing, ExecSocketWorkersMatchLoopback) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto loopback = makeLoopbackCluster(2);
  const std::string reference =
      shardedDigest(tree, events, "tree-counters", *loopback);
  EXPECT_EQ(reference, singleProcessDigest(tree, events, "tree-counters"));
  auto exec = makeExecCluster(2);
  EXPECT_EQ(shardedDigest(tree, events, "tree-counters", *exec), reference);
}

// The coordinator samples request latency from its ingest's arrival
// stamps exactly as EpochServer does, per epoch and run-wide.
TEST(ShardServing, CoordinatorReportsRequestLatency) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto cluster = makeLoopbackCluster(2);
  ShardOptions options = baseOptions("tree-counters");
  options.serve.latencySample = 256;
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, options, cluster->links(),
                               "test");
  const ShardedReport report = coordinator.serve(stream);
  cluster->join();
  EXPECT_GT(report.latencySamples, 0u);
  EXPECT_GT(report.latencyMsP50, 0.0);
  EXPECT_LE(report.latencyMsP50, report.latencyMsP99);
  EXPECT_LE(report.latencyMsP99, report.latencyMsP999);
  ASSERT_FALSE(coordinator.epochLog().empty());
  for (const serve::EpochRecord& record : coordinator.epochLog()) {
    EXPECT_GT(record.latencyMsP50, 0.0) << "epoch " << record.index;
    EXPECT_GT(record.latencyMsP99, 0.0) << "epoch " << record.index;
    EXPECT_GT(record.latencyMsP999, 0.0) << "epoch " << record.index;
  }
}

// An unknown policy spec fails inside the worker during stack
// construction; the failure must cross the wire as Stage::Connect
// (exit code 15) with the shard attribution, for threads and for real
// child processes alike.
TEST(ShardServing, WorkerConstructionFailureArrivesAsConnect) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  for (const bool socket : {false, true}) {
    auto cluster = socket ? makeExecCluster(2) : makeLoopbackCluster(2);
    serve::VectorStream stream(events);
    ShardCoordinator coordinator(tree, kObjects,
                                 baseOptions("no-such-policy"),
                                 cluster->links(), "test");
    try {
      (void)coordinator.serve(stream);
      FAIL() << "expected serve::Error";
    } catch (const serve::Error& e) {
      EXPECT_EQ(e.stage(), serve::Stage::Connect);
      EXPECT_EQ(e.exitCode(), 15);
      EXPECT_NE(e.cause().find("no-such-policy"), std::string::npos);
    }
    cluster->kill();
  }
}

/// A scripted fake worker: completes the handshake, receives the first
/// epoch, then misbehaves (dies or goes silent). Runs the protocol far
/// enough that the coordinator's failure lands mid-epoch, not at
/// connect.
void misbehavingWorker(std::shared_ptr<FramedTransport> link, bool die) {
  try {
    (void)link->recv();  // Hello
    link->send(FrameType::kHelloAck, {});
    (void)link->recv();  // first epoch
    if (die) {
      link->close();  // peer death mid-epoch
      return;
    }
    // Go silent: block on a frame the coordinator will never send. The
    // coordinator's watchdog fires; its closeAll() then unblocks this
    // recv with an error and the thread winds down.
    (void)link->recv();
  } catch (...) {
  }
}

TEST(ShardServing, MidEpochPeerDeathIsPeerError) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto [coordEnd, workerEnd] = makeLoopbackPair();
  FramedTransport link(std::move(coordEnd));
  std::thread worker(
      misbehavingWorker,
      std::make_shared<FramedTransport>(std::move(workerEnd)),
      /*die=*/true);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("tree-counters"),
                               {&link}, "test");
  try {
    (void)coordinator.serve(stream);
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_EQ(e.exitCode(), 17);
  }
  worker.join();
}

TEST(ShardServing, SilentPeerTripsWatchdog) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto [coordEnd, workerEnd] = makeLoopbackPair();
  FramedTransport link(std::move(coordEnd));
  std::thread worker(
      misbehavingWorker,
      std::make_shared<FramedTransport>(std::move(workerEnd)),
      /*die=*/false);
  serve::VectorStream stream(events);
  ShardOptions options = baseOptions("tree-counters");
  options.peerTimeoutMs = 100.0;
  ShardCoordinator coordinator(tree, kObjects, options, {&link}, "test");
  try {
    (void)coordinator.serve(stream);
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_NE(e.cause().find("unresponsive"), std::string::npos);
  }
  worker.join();
}

// A worker process that exits nonzero must surface from join() as a
// Peer error naming the shard and the exit status — the
// supervisor-facing contract of the process clusters.
TEST(ShardServing, JoinReportsFailedWorkerProcess) {
  auto cluster = makeExecCluster(1);
  // Closing the coordinator link makes the worker see end-of-stream
  // while waiting for Hello — a Peer-stage failure, so the child
  // process exits with the Peer exit code (17), which join() reports.
  cluster->links()[0]->close();
  try {
    cluster->join();
    FAIL() << "expected serve::Error";
  } catch (const serve::Error& e) {
    EXPECT_EQ(e.stage(), serve::Stage::Peer);
    EXPECT_NE(e.cause().find("worker 0"), std::string::npos);
    EXPECT_NE(e.cause().find("17"), std::string::npos);
  }
}

// The worker validates every request's origin before serving, as
// EpochIngest does single-process. A scripted coordinator drives one
// worker process entry (runWorkerProcess over a socketpair) through
// two valid epochs, then one whose last request has an out-of-range
// origin: that epoch must fail at the Ingest stage (exit code 10)
// instead of indexing past the worker's copy tables.
TEST(ShardServing, WorkerRejectsOutOfRangeOrigin) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  for (const net::NodeId origin : {tree.nodeCount() + 1000, -5}) {
    SCOPED_TRACE(origin);
    auto [coordFd, workerFd] = makeSocketPair();
    int exitCode = -1;
    // Declared before the link: an early ASSERT return closes the link
    // first, so the worker sees end-of-stream and the join completes.
    std::jthread worker(
        [&exitCode, fd = workerFd] { exitCode = runWorkerProcess(fd); });
    FramedTransport link(makeSocketChannel(coordFd));
    HelloMsg hello;
    hello.numObjects = kObjects;
    hello.policySpec = "tree-counters";
    hello.treeText = net::toText(tree);
    link.send(FrameType::kHello, hello.encode());
    ASSERT_EQ(link.recv().type, FrameType::kHelloAck);
    for (std::size_t epoch = 0; epoch < 3; ++epoch) {
      EpochMsg msg;
      msg.epoch = epoch;
      msg.events.assign(events.begin() + epoch * 100,
                        events.begin() + (epoch + 1) * 100);
      if (epoch == 2) msg.events.back().origin = origin;
      link.send(FrameType::kEpoch, msg.encode());
      if (epoch == 2) break;
      ASSERT_EQ(link.recv().type, FrameType::kStats);
      DecideMsg decide;
      decide.epoch = epoch;
      link.send(FrameType::kDecide, decide.encode());
    }
    const Frame reply = link.recv();
    ASSERT_EQ(reply.type, FrameType::kError);
    const ErrorMsg error = ErrorMsg::decode(reply.payload);
    EXPECT_EQ(error.stage, static_cast<std::uint32_t>(serve::Stage::Ingest))
        << error.cause;
    EXPECT_EQ(error.epoch, 2u);
    EXPECT_NE(error.cause.find("origin"), std::string::npos) << error.cause;
    link.close();
    worker.join();
    EXPECT_EQ(exitCode, 10);
  }
}

TEST(ShardServing, CoordinatorValidatesOptions) {
  const net::Tree tree = testTree();
  auto cluster = makeLoopbackCluster(1);

  EXPECT_THROW(ShardCoordinator(tree, kObjects, baseOptions("tree-counters"),
                                {}, "test"),
               std::invalid_argument);

  ShardOptions checkpointing = baseOptions("tree-counters");
  checkpointing.serve.checkpointDir = "/tmp/nope";
  EXPECT_THROW(ShardCoordinator(tree, kObjects, checkpointing,
                                cluster->links(), "test"),
               std::invalid_argument);

  ShardOptions faulty = baseOptions("tree-counters");
  faulty.serve.faults = util::makeFaultInjector("shard-throw@epoch0");
  EXPECT_THROW(ShardCoordinator(tree, kObjects, faulty, cluster->links(),
                                "test"),
               std::invalid_argument);

  cluster->kill();
}

TEST(ShardServing, ServeIsOneShot) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto cluster = makeLoopbackCluster(1);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("tree-counters"),
                               cluster->links(), "test");
  (void)coordinator.serve(stream);
  cluster->join();
  serve::VectorStream again(events);
  EXPECT_THROW((void)coordinator.serve(again), std::logic_error);
}

// The aggregate report must be internally consistent: per-shard
// requests sum to the total, cross-shard bytes match the per-shard
// byte counters, and every shard reports busy time.
TEST(ShardServing, ReportBreakdownIsConsistent) {
  const net::Tree tree = testTree();
  const std::vector<workload::RequestEvent> events = makeEvents(tree);
  auto cluster = makeLoopbackCluster(3);
  serve::VectorStream stream(events);
  ShardCoordinator coordinator(tree, kObjects, baseOptions("adaptive"),
                               cluster->links(), "test");
  const ShardedReport report = coordinator.serve(stream);
  cluster->join();

  EXPECT_EQ(report.workers, 3);
  EXPECT_EQ(report.totalRequests, events.size());
  ASSERT_EQ(report.shards.size(), 3u);
  std::uint64_t requestSum = 0;
  std::uint64_t byteSum = 0;
  for (const ShardBreakdown& shard : report.shards) {
    requestSum += shard.requests;
    byteSum += shard.bytesToWorker + shard.bytesFromWorker;
    EXPECT_GT(shard.busyMs, 0.0);
    EXPECT_GT(shard.bytesToWorker, 0u);
    EXPECT_GT(shard.bytesFromWorker, 0u);
  }
  EXPECT_EQ(requestSum, report.totalRequests);
  EXPECT_EQ(byteSum, report.crossShardBytes);
  EXPECT_GT(report.criticalPathMs, 0.0);
  EXPECT_EQ(report.epochs, coordinator.epochLog().size());
}

}  // namespace
}  // namespace hbn::shard
