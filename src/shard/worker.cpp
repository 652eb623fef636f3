#include "hbn/shard/worker.h"

#include <ctime>

#include <memory>
#include <string>
#include <vector>

#include "hbn/net/rooted.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/shard/partition.h"

namespace hbn::shard {
namespace {

/// CPU milliseconds burned by THIS thread so far. busyMs feeds the
/// coordinator's critical-path metric (Σ max-over-shards per epoch),
/// which models truly parallel workers; a wall clock would bill each
/// worker for its siblings' quanta whenever workers outnumber cores
/// and make the metric meaningless on small machines. The thread clock
/// counts only cycles this worker spent. Exact while the shard serves
/// on the transport thread (threads <= 1, the benchmark shape); with
/// worker-internal serve threads every range but the first bills its
/// own thread's clock and busyMs undercounts — the honest wall clock is
/// reported alongside.
double threadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The objects this shard serves, per the Hello's partition.
std::vector<bool> ownedObjects(const HelloMsg& hello) {
  const Partition partition(static_cast<Partition::Kind>(hello.partitionKind),
                            hello.shardCount, hello.partitionSeed,
                            hello.numObjects);
  std::vector<bool> owned(static_cast<std::size_t>(hello.numObjects));
  for (workload::ObjectId x = 0; x < hello.numObjects; ++x) {
    owned[static_cast<std::size_t>(x)] = partition.ownerOf(x) == hello.shardId;
  }
  return owned;
}

/// The worker's engine configuration. The coordinator sizes the
/// epochs, decides every re-placement and samples request latency, so
/// the worker needs only the policy and its serve threads; a failed
/// handoff publication fails the epoch without retrying.
serve::ServeOptions serveOptions(const HelloMsg& hello) {
  serve::ServeOptions options;
  options.threads = hello.threads;
  options.policy = hello.policySpec;
  options.latencySample = 0;
  options.handoffRetries = 0;
  return options;
}

/// A failure the coordinator shipped, rethrown with its stage.
[[noreturn]] void rethrowCoordinatorError(const Frame& frame) {
  const ErrorMsg err = ErrorMsg::decode(frame.payload);
  throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                     "coordinator: " + err.cause);
}

std::vector<std::int64_t> edgeVector(const core::LoadMap& loads) {
  const auto edges = loads.edgeLoads();
  return {edges.begin(), edges.end()};
}

/// The worker: the wire protocol around an EpochServer restricted to
/// the shard's objects, built once from the Hello frame.
class ShardWorker {
 public:
  ShardWorker(FramedTransport& transport, const HelloMsg& hello)
      : transport_(transport),
        tree_(net::parseText(hello.treeText)),
        rooted_(tree_, tree_.defaultRoot()),
        server_(rooted_, hello.numObjects, serveOptions(hello),
                ownedObjects(hello)) {}

  /// The epoch being served (the last one received), for failure
  /// attribution.
  [[nodiscard]] std::uint64_t epoch() const noexcept { return epoch_; }

  /// Serves Epoch/Decide/Fin frames until Fin; throws serve::Error on
  /// protocol violations and injected/structural failures.
  void run() {
    for (;;) {
      Frame frame = transport_.recv();
      switch (frame.type) {
        case FrameType::kEpoch:
          serveEpoch(frame.payload);
          break;
        case FrameType::kFin: {
          FinAckMsg ack;
          ack.requests = server_.ownedRequests();
          ack.busyMs = totalBusyMs_;
          ack.replications = static_cast<std::int64_t>(server_.replications());
          ack.invalidations =
              static_cast<std::int64_t>(server_.invalidations());
          ack.policyMetrics = server_.policy().metrics();
          transport_.send(FrameType::kFinAck, ack.encode());
          return;
        }
        case FrameType::kError:
          rethrowCoordinatorError(frame);
        default:
          throw serve::Error(serve::Stage::Frame, epoch_,
                             std::string("unexpected ") +
                                 frameTypeName(frame.type) + " frame");
      }
    }
  }

 private:
  void serveEpoch(const std::string& payload) {
    // Busy time starts at decode: deserialisation, bucketing, serving,
    // aggregation and the lower-bound refresh are this shard's
    // critical-path work for the epoch; the blocking recv above is not.
    const double busyStart = threadCpuMs();
    EpochMsg msg = [&] {
      try {
        return EpochMsg::decode(payload);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Frame, epoch_, e.what());
      }
    }();
    epoch_ = msg.epoch;
    transport_.setEpoch(epoch_);
    batch_.raw = std::move(msg.events);
    batch_.n = batch_.raw.size();
    try {
      batch_.bucket(server_.numObjects(), tree_.nodeCount());
    } catch (const std::exception& e) {
      throw serve::Error(serve::Stage::Ingest, epoch_, e.what());
    }

    // The shared epoch step: serves owned∩touched objects only and
    // aggregates every event into the full matrix, so the union over
    // shards reproduces the single-process epoch exactly.
    const core::LoadMap& serveLoads = server_.serveBatch(batch_, epoch_);
    // Free the decoded events now, as the frame they came from would
    // be: holding them into the next decode doubles peak memory.
    batch_.raw = std::vector<workload::RequestEvent>();

    const dynamic::OnlinePolicy& policy = server_.policy();
    StatsMsg stats;
    stats.epoch = epoch_;
    stats.lowerBound = server_.lowerBound();
    stats.busyMs = threadCpuMs() - busyStart;
    stats.wantsHandoff = policy.migratable() && policy.wantsHandoff() ? 1 : 0;
    stats.migratable = policy.migratable() ? 1 : 0;
    stats.replications = static_cast<std::int64_t>(server_.replications());
    stats.invalidations = static_cast<std::int64_t>(server_.invalidations());
    stats.serveLoads = edgeVector(serveLoads);
    totalBusyMs_ += stats.busyMs;
    transport_.send(FrameType::kStats, stats.encode());

    // Broadcast leg of the barrier: the coordinator's global decision.
    Frame decideFrame = transport_.recv();
    if (decideFrame.type == FrameType::kError) {
      rethrowCoordinatorError(decideFrame);
    }
    if (decideFrame.type != FrameType::kDecide) {
      throw serve::Error(serve::Stage::Frame, epoch_,
                         std::string("expected decide, got ") +
                             frameTypeName(decideFrame.type));
    }
    const DecideMsg decide = DecideMsg::decode(decideFrame.payload);
    if (decide.epoch != epoch_) {
      throw serve::Error(serve::Stage::Frame, epoch_,
                         "decide for epoch " + std::to_string(decide.epoch) +
                             " while serving " + std::to_string(epoch_));
    }
    if (decide.replace != 0) {
      // The §4 re-placement wave: the barrier-mode handoff over the
      // full local matrix (identical on every shard), migrating every
      // owned object.
      const double migrateStart = threadCpuMs();
      MigrateMsg migrate;
      migrate.epoch = epoch_;
      migrate.loads = edgeVector(server_.replaceNow(epoch_));
      migrate.busyMs = threadCpuMs() - migrateStart;
      totalBusyMs_ += migrate.busyMs;
      transport_.send(FrameType::kMigrate, migrate.encode());
    }
  }

  FramedTransport& transport_;
  net::Tree tree_;
  net::RootedTree rooted_;
  serve::EpochServer server_;
  serve::EpochBatch batch_;
  std::uint64_t epoch_ = 0;
  double totalBusyMs_ = 0.0;
};

}  // namespace

void runWorker(FramedTransport& transport) {
  std::unique_ptr<ShardWorker> worker;
  // Ships a failure to the coordinator, which rethrows it with this
  // shard's attribution; best effort, the link may already be gone.
  const auto ship = [&](serve::Stage stage, std::uint64_t epoch,
                        const std::string& cause) {
    ErrorMsg err;
    err.stage = static_cast<std::uint32_t>(stage);
    err.epoch = epoch;
    err.cause = cause;
    try {
      transport.send(FrameType::kError, err.encode());
    } catch (...) {
    }
  };
  try {
    Frame hello = transport.recv();
    if (hello.type != FrameType::kHello) {
      throw serve::Error(serve::Stage::Connect, 0,
                         std::string("expected hello, got ") +
                             frameTypeName(hello.type));
    }
    const HelloMsg msg = [&] {
      try {
        return HelloMsg::decode(hello.payload);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Connect, 0, e.what());
      }
    }();
    if (msg.protocolVersion != kProtocolVersion) {
      throw serve::Error(serve::Stage::Connect, 0,
                         "protocol version mismatch (coordinator " +
                             std::to_string(msg.protocolVersion) +
                             ", worker " + std::to_string(kProtocolVersion) +
                             ")");
    }
    // Stack construction failures — unparsable tree, unknown policy
    // spec, bad partition parameters — are handshake failures.
    worker = [&] {
      try {
        return std::make_unique<ShardWorker>(transport, msg);
      } catch (const serve::Error&) {
        throw;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Connect, 0, e.what());
      }
    }();
    transport.send(FrameType::kHelloAck, {});
    worker->run();
  } catch (const serve::Error& e) {
    // The stage survives the wire. Peer errors mean the link itself is
    // gone — nothing to send on.
    if (e.stage() != serve::Stage::Peer) ship(e.stage(), e.epoch(), e.cause());
    throw;
  } catch (const std::exception& e) {
    ship(serve::Stage::Serve, worker != nullptr ? worker->epoch() : 0,
         e.what());
    throw;
  }
}

int runWorkerProcess(int fd) noexcept {
  try {
    FramedTransport transport(makeSocketChannel(fd));
    runWorker(transport);
    return 0;
  } catch (const serve::Error& e) {
    return e.exitCode();
  } catch (...) {
    return 1;
  }
}

}  // namespace hbn::shard
