#include "hbn/shard/coordinator.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "hbn/dynamic/harness.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/error.h"
#include "hbn/serve/pipeline.h"
#include "hbn/util/stats.h"
#include "hbn/util/timer.h"

namespace hbn::shard {
namespace {

std::string encodeEpochPayload(std::uint64_t epoch,
                               std::span<const workload::RequestEvent> events) {
  util::ByteWriter w;
  w.u64(epoch);
  w.u64(events.size());
  for (const workload::RequestEvent& ev : events) {
    w.i32(ev.object);
    w.i32(ev.origin);
    w.u8(ev.isWrite ? 1 : 0);
  }
  return w.take();
}

/// Rejects a per-edge Stats/Migrate vector that does not match the tree.
void checkEdgeCount(const std::vector<std::int64_t>& delta, int edges,
                    int shard, std::uint64_t epoch) {
  if (delta.size() != static_cast<std::size_t>(edges)) {
    throw serve::Error(serve::Stage::Frame, epoch,
                       "shard " + std::to_string(shard) + ": load vector has " +
                           std::to_string(delta.size()) + " edges, tree has " +
                           std::to_string(edges));
  }
}

}  // namespace

ShardCoordinator::ShardCoordinator(const net::Tree& tree, int numObjects,
                                   ShardOptions options,
                                   std::vector<FramedTransport*> links,
                                   std::string transportName)
    : tree_(&tree),
      numObjects_(numObjects),
      options_(std::move(options)),
      links_(std::move(links)),
      transportName_(std::move(transportName)),
      loads_(tree.edgeCount()),
      serveLoads_(tree.edgeCount()) {
  if (links_.empty()) {
    throw std::invalid_argument("ShardCoordinator: at least one worker link");
  }
  if (options_.serve.epochSize < 1) {
    throw std::invalid_argument("ShardCoordinator: epochSize >= 1");
  }
  if (!options_.serve.checkpointDir.empty()) {
    throw std::invalid_argument(
        "ShardCoordinator: checkpointing is single-process only "
        "(drop --checkpoint-dir for sharded serving)");
  }
  if (options_.serve.faults != nullptr) {
    throw std::invalid_argument(
        "ShardCoordinator: fault injection is single-process only");
  }
  drift_.replaceDrift = options_.serve.replaceDrift;
}

void ShardCoordinator::closeAll() noexcept {
  for (FramedTransport* link : links_) link->close();
}

Frame ShardCoordinator::expect(int shard, FrameType want,
                               std::uint64_t epoch) {
  Frame frame = [&] {
    try {
      return links_[static_cast<std::size_t>(shard)]->recv(
          options_.peerTimeoutMs);
    } catch (const serve::Error& e) {
      // Re-attribute with the shard id so "which worker" survives.
      throw serve::Error(e.stage(), e.epoch(),
                         "shard " + std::to_string(shard) + ": " + e.cause());
    }
  }();
  if (frame.type == FrameType::kError) {
    ErrorMsg err = ErrorMsg::decode(frame.payload);
    throw serve::Error(static_cast<serve::Stage>(err.stage), err.epoch,
                       "shard " + std::to_string(shard) + ": " + err.cause);
  }
  if (frame.type != want) {
    throw serve::Error(serve::Stage::Frame, epoch,
                       "shard " + std::to_string(shard) + ": expected " +
                           frameTypeName(want) + ", got " +
                           frameTypeName(frame.type));
  }
  return frame;
}

void ShardCoordinator::handshake() {
  const int shards = static_cast<int>(links_.size());
  const std::string treeText = net::toText(*tree_);
  for (int s = 0; s < shards; ++s) {
    HelloMsg hello;
    hello.shardId = s;
    hello.shardCount = shards;
    hello.numObjects = numObjects_;
    hello.epochSize = options_.serve.epochSize;
    hello.threads = options_.serve.threads;
    hello.partitionKind = static_cast<std::uint8_t>(options_.partition);
    hello.partitionSeed = options_.partitionSeed;
    hello.policySpec = options_.serve.policy;
    hello.treeText = treeText;
    links_[static_cast<std::size_t>(s)]->send(FrameType::kHello,
                                             hello.encode());
  }
  for (int s = 0; s < shards; ++s) {
    try {
      (void)expect(s, FrameType::kHelloAck, 0);
    } catch (const serve::Error& e) {
      // Handshake-phase peer/frame failures are connect failures: the
      // cluster never came up.
      if (e.stage() == serve::Stage::Peer ||
          e.stage() == serve::Stage::Frame) {
        throw serve::Error(serve::Stage::Connect, 0, e.cause());
      }
      throw;
    }
  }
}

ShardedReport ShardCoordinator::serve(serve::RequestStream& stream) {
  if (served_) {
    throw std::logic_error("ShardCoordinator: serve() is one-shot");
  }
  served_ = true;
  try {
    const net::Tree& tree = *tree_;
    const int shards = static_cast<int>(links_.size());

    handshake();

    ShardedReport report;
    report.policy = options_.serve.policy;
    report.pipeline = options_.serve.pipeline;
    report.transport = transportName_;
    report.partition = partitionKindName(options_.partition);
    report.workers = shards;

    // Stage 1 runs here exactly as in the single-process engine: the
    // threaded ingest buckets epoch N+1 while the workers serve epoch
    // N (release() right after the broadcast hands the slot back).
    serve::EpochIngest ingest(stream, tree, numObjects_,
                              options_.serve.epochSize,
                              options_.serve.pipeline, nullptr, 0);
    report.epochBufferBytes = ingest.bufferBytes();
    util::Accumulator epochMs;
    util::ReservoirSampler latency(options_.serve.latencySample);
    std::vector<serve::EpochBatch::Arrival> arrivals;
    std::vector<double> epochLatency;
    util::Timer total;
    double lastLowerBound = 0.0;

    for (;;) {
      serve::EpochBatch* const batch =
          ingest.acquire(options_.serve.stallTimeoutMs);
      if (batch == nullptr) break;
      util::Timer epochTimer;
      const std::uint64_t epochIndex = report.epochs;
      serve::checkEpochOrder(*batch, epochIndex);
      const std::size_t n = batch->n;
      const bool degraded = batch->degraded;
      if (degraded) ++report.degradedEpochs;

      // Broadcast: encode once, write identical bytes to every link.
      const std::string frame = FramedTransport::encodeFrame(
          FrameType::kEpoch,
          encodeEpochPayload(
              epochIndex, std::span<const workload::RequestEvent>(
                              batch->raw.data(), n)));
      for (FramedTransport* link : links_) {
        link->setEpoch(epochIndex);
        link->sendEncoded(frame);
      }
      // The ingest thread refills the slot once released: keep the
      // arrival stamps for this epoch's request latency.
      arrivals.assign(batch->arrivals.begin(), batch->arrivals.end());
      ingest.release(batch);

      // Convergecast: merge per-shard stats. Integer serve-load deltas
      // sum additively (each object is served by exactly one owner),
      // so the merged maps are bit-identical to single-process serving
      // for any shard count.
      double epochBusy = 0.0;
      double lowerBound = 0.0;
      bool anyWantsHandoff = false;
      bool migratable = true;
      for (int s = 0; s < shards; ++s) {
        Frame statsFrame = expect(s, FrameType::kStats, epochIndex);
        const StatsMsg stats = StatsMsg::decode(statsFrame.payload);
        if (stats.epoch != epochIndex) {
          throw serve::Error(serve::Stage::Frame, epochIndex,
                             "shard " + std::to_string(s) +
                                 ": stats for epoch " +
                                 std::to_string(stats.epoch));
        }
        checkEdgeCount(stats.serveLoads, tree.edgeCount(), s, epochIndex);
        loads_.addEdgeLoads(stats.serveLoads);
        serveLoads_.addEdgeLoads(stats.serveLoads);
        // Every worker computes the analytic bound over the SAME full
        // matrix — bitwise divergence means a shard saw a different
        // epoch than its peers. Cheapest distributed-determinism check
        // there is, so it runs every epoch.
        if (s == 0) {
          lowerBound = stats.lowerBound;
        } else if (stats.lowerBound != lowerBound) {
          throw serve::Error(serve::Stage::Serve, epochIndex,
                             "shard " + std::to_string(s) +
                                 ": lower-bound divergence (" +
                                 std::to_string(stats.lowerBound) + " vs " +
                                 std::to_string(lowerBound) + ")");
        }
        anyWantsHandoff = anyWantsHandoff || stats.wantsHandoff != 0;
        migratable = migratable && stats.migratable != 0;
        epochBusy = std::max(epochBusy, stats.busyMs);
      }
      lastLowerBound = lowerBound;

      serve::EpochRecord record;
      record.index = epochIndex;
      record.requests = n;
      record.degraded = degraded;
      record.lowerBound = lowerBound;
      record.congestion = loads_.congestion(tree);

      // Decide: the single-process drift trigger over merged
      // serve-only congestion, OR the policies' own handoff requests
      // (a per-object OR, so OR-over-shards equals the single-process
      // poll). Broadcast the decision either way — workers block on it.
      const double serveCongestion = serveLoads_.congestion(tree);
      const bool replace =
          migratable &&
          (drift_.fired(serveCongestion, lowerBound) || anyWantsHandoff);
      DecideMsg decide;
      decide.epoch = epochIndex;
      decide.replace = replace ? 1 : 0;
      const std::string decideFrame = FramedTransport::encodeFrame(
          FrameType::kDecide, decide.encode());
      for (FramedTransport* link : links_) link->sendEncoded(decideFrame);

      if (replace) {
        // Migrate wave: every shard applies the §4 re-placement to its
        // owned objects and reports the charged traffic.
        double migrateBusy = 0.0;
        for (int s = 0; s < shards; ++s) {
          Frame migrateFrame = expect(s, FrameType::kMigrate, epochIndex);
          const MigrateMsg migrate = MigrateMsg::decode(migrateFrame.payload);
          checkEdgeCount(migrate.loads, tree.edgeCount(), s, epochIndex);
          loads_.addEdgeLoads(migrate.loads);
          migrateBusy = std::max(migrateBusy, migrate.busyMs);
        }
        epochBusy += migrateBusy;
        ++report.replacements;
        record.replaced = true;
        record.congestion = loads_.congestion(tree);  // migration included
        drift_.reset(serveCongestion, lowerBound);
      }

      record.ratio =
          dynamic::competitiveRatio(record.congestion, record.lowerBound);
      record.wallMs = epochTimer.millis();
      if (options_.serve.latencySample > 0) {
        serve::recordEpochLatency(arrivals, serve::EpochBatch::Clock::now(),
                                  record, latency, epochLatency);
      }
      epochMs.add(record.wallMs);
      report.criticalPathMs += epochBusy;
      log_.push_back(record);
      ++report.epochs;
      report.totalRequests += n;
    }

    // Fin wave: collect per-shard summaries and release the workers.
    const std::string finFrame =
        FramedTransport::encodeFrame(FrameType::kFin, {});
    for (FramedTransport* link : links_) link->sendEncoded(finFrame);
    std::uint64_t shardRequestSum = 0;
    for (int s = 0; s < shards; ++s) {
      Frame ackFrame = expect(s, FrameType::kFinAck, report.epochs);
      const FinAckMsg ack = FinAckMsg::decode(ackFrame.payload);
      ShardBreakdown breakdown;
      breakdown.shard = s;
      breakdown.requests = ack.requests;
      breakdown.busyMs = ack.busyMs;
      breakdown.replications = static_cast<core::Count>(ack.replications);
      breakdown.invalidations = static_cast<core::Count>(ack.invalidations);
      breakdown.bytesToWorker =
          links_[static_cast<std::size_t>(s)]->bytesSent();
      breakdown.bytesFromWorker =
          links_[static_cast<std::size_t>(s)]->bytesReceived();
      breakdown.policyMetrics = ack.policyMetrics;
      shardRequestSum += ack.requests;
      report.replications += breakdown.replications;
      report.invalidations += breakdown.invalidations;
      report.crossShardBytes +=
          breakdown.bytesToWorker + breakdown.bytesFromWorker;
      report.shards.push_back(std::move(breakdown));
    }
    // Ownership soundness: every event is served by exactly one shard.
    if (shardRequestSum != report.totalRequests) {
      throw serve::Error(serve::Stage::Serve, report.epochs,
                         "shards served " + std::to_string(shardRequestSum) +
                             " of " + std::to_string(report.totalRequests) +
                             " requests (partition overlap or gap)");
    }
    closeAll();

    report.congestion = loads_.congestion(tree);
    report.lowerBound = lastLowerBound;
    serve::finishReport(report, total.millis(), epochMs, latency);
    report.requestsPerSecCritical =
        report.criticalPathMs > 0.0
            ? static_cast<double>(report.totalRequests) /
                  report.criticalPathMs * 1e3
            : 0.0;
    report.bytesPerRequest =
        report.totalRequests > 0
            ? static_cast<double>(report.crossShardBytes) /
                  static_cast<double>(report.totalRequests)
            : 0.0;
    return report;
  } catch (...) {
    closeAll();
    throw;
  }
}

}  // namespace hbn::shard
