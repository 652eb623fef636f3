#include "hbn/shard/worker.h"

#include <ctime>

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/rooted.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/error.h"
#include "hbn/shard/partition.h"
#include "hbn/util/timer.h"
#include "hbn/workload/workload.h"

namespace hbn::shard {
namespace {

using workload::ObjectId;
using workload::RequestEvent;

/// CPU milliseconds burned by THIS thread so far. busyMs feeds the
/// coordinator's critical-path metric (Σ max-over-shards per epoch),
/// which models truly parallel workers; a wall clock would bill each
/// worker for its siblings' quanta whenever workers outnumber cores
/// and make the metric meaningless on small machines. The thread clock
/// counts only cycles this worker spent. Exact while the shard serves
/// on the transport thread (threads <= 1, the benchmark shape); with
/// worker-internal serve threads the stripes bill their own clocks and
/// busyMs undercounts — the honest wall clock is reported alongside.
double threadCpuMs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// The worker's serving stack, built once from the Hello frame.
class ShardWorker {
 public:
  ShardWorker(FramedTransport& transport, const HelloMsg& hello)
      : transport_(transport),
        tree_(net::parseText(hello.treeText)),
        rooted_(tree_, tree_.defaultRoot()),
        partition_(static_cast<Partition::Kind>(hello.partitionKind),
                   hello.shardCount, hello.partitionSeed, hello.numObjects),
        shardId_(hello.shardId),
        numObjects_(hello.numObjects),
        threads_(hello.threads),
        policy_(dynamic::OnlinePolicyRegistry::global()
                    .create(hello.policySpec)
                    ->build(rooted_, hello.numObjects,
                            tree_.processors().front())),
        aggregated_(hello.numObjects, tree_.nodeCount()),
        lowerBound_(rooted_),
        epochServeLoads_(tree_.edgeCount()),
        offsets_(static_cast<std::size_t>(hello.numObjects) + 1, 0) {
    const int workers = core::resolveWorkerCount(threads_, numObjects_);
    workerLoads_.reserve(static_cast<std::size_t>(workers));
    workerAcc_.reserve(static_cast<std::size_t>(workers));
    for (int w = 0; w < workers; ++w) {
      workerLoads_.emplace_back(tree_.edgeCount());
      workerAcc_.emplace_back(policy_->flatView());
    }
    workerStats_.resize(static_cast<std::size_t>(workers));
    workerScratch_.resize(static_cast<std::size_t>(workers));
    servedThisEpoch_.assign(static_cast<std::size_t>(workers), 0);
    lowerBound_.rebuild(aggregated_);
  }

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
          ack.requests = servedRequests_;
          ack.busyMs = totalBusyMs_;
          ack.replications = static_cast<std::int64_t>(replications_);
          ack.invalidations = static_cast<std::int64_t>(invalidations_);
          ack.policyMetrics = policy_->metrics();
          transport_.send(FrameType::kFinAck, ack.encode());
          return;
        }
        case FrameType::kError: {
          const ErrorMsg err = ErrorMsg::decode(frame.payload);
          throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                             "coordinator: " + err.cause);
        }
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
    const EpochMsg msg = [&] {
      try {
        return EpochMsg::decode(payload);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Frame, epoch_, e.what());
      }
    }();
    epoch_ = msg.epoch;
    transport_.setEpoch(epoch_);
    const std::size_t n = msg.events.size();
    for (const RequestEvent& ev : msg.events) {
      if (ev.object < 0 || ev.object >= numObjects_) {
        throw serve::Error(serve::Stage::Ingest, epoch_,
                           "request object out of range");
      }
      if (ev.origin < 0 || ev.origin >= tree_.nodeCount()) {
        throw serve::Error(serve::Stage::Ingest, epoch_,
                           "request origin out of range");
      }
    }
    bucketed_.resize(n);
    dynamic::bucketRequestsByObject(msg.events, numObjects_, offsets_,
                                    bucketed_);

    // Serve owned∩touched objects only — the shard's slice of the
    // epoch. Identical bucketing plus per-object serving means the
    // union over shards reproduces the single-process epoch exactly.
    const int workers = static_cast<int>(workerLoads_.size());
    for (int w = 0; w < workers; ++w) {
      workerLoads_[static_cast<std::size_t>(w)].clear();
      workerStats_[static_cast<std::size_t>(w)] = {};
    }
    core::parallelForObjects(
        numObjects_, threads_, [&](ObjectId x, int worker) {
          const std::size_t begin = offsets_[static_cast<std::size_t>(x)];
          const std::size_t end = offsets_[static_cast<std::size_t>(x) + 1];
          if (begin == end) return;
          if (partition_.ownerOf(x) != shardId_) return;
          const auto w = static_cast<std::size_t>(worker);
          const dynamic::ShardStats stats = policy_->serveShard(
              x,
              std::span<const RequestEvent>(bucketed_.data() + begin,
                                            end - begin),
              workerLoads_[w], workerScratch_[w], &workerAcc_[w]);
          workerStats_[w].replications += stats.replications;
          workerStats_[w].invalidations += stats.invalidations;
          servedThisEpoch_[w] += end - begin;
        });

    epochServeLoads_.clear();
    std::uint64_t served = 0;
    for (int w = 0; w < workers; ++w) {
      const auto& partial = workerLoads_[static_cast<std::size_t>(w)];
      for (net::EdgeId e = 0; e < tree_.edgeCount(); ++e) {
        const core::Count load = partial.edgeLoad(e);
        if (load != 0) epochServeLoads_.addEdgeLoad(e, load);
      }
      replications_ += workerStats_[static_cast<std::size_t>(w)].replications;
      invalidations_ +=
          workerStats_[static_cast<std::size_t>(w)].invalidations;
      served += servedThisEpoch_[static_cast<std::size_t>(w)];
      servedThisEpoch_[static_cast<std::size_t>(w)] = 0;
    }
    servedRequests_ += served;

    // Full-matrix aggregation in the single-process order, over ALL
    // events (owned or not). Every shard holds the complete matrix, so
    // handoff placements that read other rows stay shard-count
    // independent.
    lowerBound_.absorbEpoch(msg.events, offsets_, aggregated_);

    StatsMsg stats;
    stats.epoch = epoch_;
    stats.lowerBound = lowerBound_.congestion();
    stats.busyMs = threadCpuMs() - busyStart;
    stats.wantsHandoff =
        policy_->migratable() && policy_->wantsHandoff() ? 1 : 0;
    stats.migratable = policy_->migratable() ? 1 : 0;
    stats.replications = static_cast<std::int64_t>(replications_);
    stats.invalidations = static_cast<std::int64_t>(invalidations_);
    stats.serveLoads.resize(
        static_cast<std::size_t>(tree_.edgeCount()));
    for (net::EdgeId e = 0; e < tree_.edgeCount(); ++e) {
      stats.serveLoads[static_cast<std::size_t>(e)] =
          epochServeLoads_.edgeLoad(e);
    }
    totalBusyMs_ += stats.busyMs;
    transport_.send(FrameType::kStats, stats.encode());

    // Broadcast leg of the barrier: the coordinator's global decision.
    Frame decideFrame = transport_.recv();
    if (decideFrame.type == FrameType::kError) {
      const ErrorMsg err = ErrorMsg::decode(decideFrame.payload);
      throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                         "coordinator: " + err.cause);
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
    if (decide.replace != 0) applyReplacement();
  }

  /// The §4 re-placement wave: open a HandoffPass over the full local
  /// matrix (identical on every shard) and migrate every owned object
  /// through the shared per-object step — the barrier-mode drain the
  /// single-process engine runs inside drift epochs.
  void applyReplacement() {
    const double busyStart = threadCpuMs();
    const int workers = static_cast<int>(workerLoads_.size());
    const std::shared_ptr<const workload::Workload> snapshot(
        std::shared_ptr<const workload::Workload>(), &aggregated_);
    std::unique_ptr<dynamic::HandoffPass> pass = [&] {
      try {
        return policy_->beginHandoff(snapshot, workers);
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Handoff, epoch_, e.what());
      }
    }();
    for (int w = 0; w < workers; ++w) {
      workerLoads_[static_cast<std::size_t>(w)].clear();
    }
    core::parallelForObjects(
        numObjects_, threads_, [&](ObjectId x, int worker) {
          if (partition_.ownerOf(x) != shardId_) return;
          const auto w = static_cast<std::size_t>(worker);
          const std::vector<net::NodeId> target = pass->target(x, worker);
          dynamic::applyHandoffTarget(*policy_, x, target, workerAcc_[w],
                                      workerLoads_[w]);
        });
    MigrateMsg migrate;
    migrate.epoch = epoch_;
    migrate.loads.assign(static_cast<std::size_t>(tree_.edgeCount()), 0);
    for (int w = 0; w < workers; ++w) {
      const auto& partial = workerLoads_[static_cast<std::size_t>(w)];
      for (net::EdgeId e = 0; e < tree_.edgeCount(); ++e) {
        migrate.loads[static_cast<std::size_t>(e)] += partial.edgeLoad(e);
      }
    }
    migrate.busyMs = threadCpuMs() - busyStart;
    totalBusyMs_ += migrate.busyMs;
    transport_.send(FrameType::kMigrate, migrate.encode());
  }

  FramedTransport& transport_;
  net::Tree tree_;
  net::RootedTree rooted_;
  Partition partition_;
  int shardId_;
  int numObjects_;
  int threads_;
  std::unique_ptr<dynamic::OnlinePolicy> policy_;
  workload::Workload aggregated_;
  core::IncrementalLowerBound lowerBound_;
  core::LoadMap epochServeLoads_;
  std::vector<std::size_t> offsets_;
  std::vector<RequestEvent> bucketed_;
  std::vector<core::LoadMap> workerLoads_;
  std::vector<core::FlatLoadAccumulator> workerAcc_;
  std::vector<dynamic::ShardStats> workerStats_;
  std::vector<dynamic::ServeScratch> workerScratch_;
  std::vector<std::uint64_t> servedThisEpoch_;
  std::uint64_t epoch_ = 0;
  std::uint64_t servedRequests_ = 0;
  core::Count replications_ = 0;
  core::Count invalidations_ = 0;
  double totalBusyMs_ = 0.0;
};

}  // namespace

void runWorker(FramedTransport& transport) {
  std::unique_ptr<ShardWorker> worker;
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
    // Ship the failure with its stage intact; the coordinator rethrows
    // it with this shard's attribution. Peer errors mean the link
    // itself is gone — nothing to send on.
    if (e.stage() != serve::Stage::Peer) {
      ErrorMsg err;
      err.stage = static_cast<std::uint32_t>(e.stage());
      err.epoch = e.epoch();
      err.cause = e.cause();
      try {
        transport.send(FrameType::kError, err.encode());
      } catch (...) {
      }
    }
    throw;
  } catch (const std::exception& e) {
    ErrorMsg err;
    err.stage = static_cast<std::uint32_t>(serve::Stage::Serve);
    err.epoch = worker != nullptr ? worker->epoch() : 0;
    err.cause = e.what();
    try {
      transport.send(FrameType::kError, err.encode());
    } catch (...) {
    }
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
