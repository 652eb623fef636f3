// ShardCoordinator — the fan-out/fan-in side of sharded serving.
//
// The coordinator owns the request stream and the global serving
// state; workers own the per-object serving work. One epoch runs as a
// wave that mirrors the single-process engine's barrier loop (and the
// convergecast/broadcast shape of dist::SyncEngine):
//
//   broadcast     the epoch batch is encoded ONCE (identical bytes on
//                 every link) and fanned out to all workers; ingest of
//                 epoch N+1 overlaps the workers serving epoch N.
//   convergecast  per-shard Stats flow up: serve-load deltas merge
//                 additively into the global LoadMaps (integer loads —
//                 bit-identical for any shard count), counters sum,
//                 and every worker's full-matrix lower bound must be
//                 bit-equal (asserted — a cheap distributed-
//                 determinism check every epoch).
//   decide        the coordinator runs the SAME DriftTrigger
//                 arithmetic as EpochServer over merged serve
//                 congestion and the shared lower bound, ORs in the
//                 policies' own handoff requests, and broadcasts the
//                 decision.
//   migrate       on replace, workers hand back their migration-load
//                 deltas, which merge into the global map before the
//                 epoch record is cut.
//
// The final loads, counters, lower bound and congestion are therefore
// bit-identical to the single-process EpochServer on the same stream
// for every registered policy — the identity the e16 experiment and
// tests/shard_serving_test.cpp pin down.
//
// Failure handling: an Error frame from any worker, a malformed frame,
// or a peer death/timeout surfaces as serve::Error with its original
// stage (exit codes 10-17 survive the wire). The coordinator closes
// every link before rethrowing, so remaining workers see end-of-stream
// and exit; process clusters then reap the children
// (hbn/shard/process.h).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/drift.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/partition.h"
#include "hbn/shard/transport.h"

namespace hbn::shard {

/// Sharded-serving knobs. `serve` carries the per-worker engine
/// configuration (epochSize, policy, replaceDrift, threads);
/// checkpointing/restore and fault injection are single-process
/// features and must be off.
struct ShardOptions {
  serve::ServeOptions serve;
  Partition::Kind partition = Partition::Kind::Hash;
  std::uint64_t partitionSeed = 0;
  /// Peer watchdog: a worker silent for this many milliseconds fails
  /// the run with Stage::Peer instead of hanging it. <= 0 waits
  /// forever.
  double peerTimeoutMs = 0.0;
};

/// Per-shard slice of the aggregate report.
struct ShardBreakdown {
  int shard = 0;
  std::uint64_t requests = 0;  ///< events served (owned objects)
  double busyMs = 0.0;         ///< per-epoch busy time, summed
  core::Count replications = 0;
  core::Count invalidations = 0;
  std::uint64_t bytesToWorker = 0;
  std::uint64_t bytesFromWorker = 0;
  std::map<std::string, double> policyMetrics;
};

/// Aggregate outcome of one sharded serve run: every single-process
/// ServeReport field (request latency comes from the coordinator's
/// ingest stamps, as in EpochServer; checkpoints and handoff retries
/// stay 0 because sharded mode has neither) plus the shard layer's own.
struct ShardedReport : serve::ServeReport {
  std::string transport;   ///< "loopback" | "socket"
  std::string partition;   ///< "hash" | "range"
  int workers = 1;
  /// Critical-path time: Σ over epochs of the slowest shard's busy
  /// time (decode + bucket + serve + aggregate + lower bound [+
  /// migration]). On a machine with fewer cores than workers the wall
  /// clock serialises the shards, so this models what N genuinely
  /// parallel workers would take; requestsPerSecCritical is the
  /// scaling metric e16 reports alongside the honest wall clock
  /// (requestsPerSec).
  double criticalPathMs = 0.0;
  double requestsPerSecCritical = 0.0;
  /// Coordinator<->worker traffic: every frame byte in both
  /// directions, summed over links.
  std::uint64_t crossShardBytes = 0;
  double bytesPerRequest = 0.0;
  std::vector<ShardBreakdown> shards;
};

/// One shard record's fields; the shard-side counterpart of
/// serve::writeEpochFields (docs/serving.md lists keys and units).
template <class Sink>
void writeShardFields(Sink& sink, const ShardBreakdown& b) {
  sink.field("shard", b.shard);
  serve::detail::writeRequests(sink, b.requests);
  sink.field("busy_ms", b.busyMs);
  sink.field("bytes_to_worker", b.bytesToWorker);
  sink.field("bytes_from_worker", b.bytesFromWorker);
  serve::detail::writePolicyFields(sink, b);
}

/// A sharded run's summary fields: the single-process summary plus the
/// shard layer's seven keys.
template <class Sink>
void writeReportFields(Sink& sink, const ShardedReport& r) {
  serve::writeReportFields(sink, r);
  sink.field("transport", r.transport);
  sink.field("partition", r.partition);
  sink.field("workers", r.workers);
  sink.field("critical_path_ms", r.criticalPathMs);
  sink.field("requests_per_sec_critical", r.requestsPerSecCritical);
  sink.field("cross_shard_bytes", r.crossShardBytes);
  sink.field("bytes_per_request", r.bytesPerRequest);
}

class ShardCoordinator {
 public:
  /// `tree` must outlive the coordinator. `links` are connected
  /// transports, one per worker, whose peer ends run
  /// shard::runWorker; the coordinator borrows them (clusters own
  /// them — see hbn/shard/process.h). Throws std::invalid_argument on
  /// unsupported options (checkpointing, fault injection, no links).
  ShardCoordinator(const net::Tree& tree, int numObjects,
                   ShardOptions options,
                   std::vector<FramedTransport*> links,
                   std::string transportName);

  /// Runs the handshake and drains `stream` epoch by epoch through the
  /// worker wave; returns the merged report. On failure every link is
  /// closed before the serve::Error propagates. One-shot: a second
  /// call throws std::logic_error (workers have exited).
  [[nodiscard]] ShardedReport serve(serve::RequestStream& stream);

  /// Merged cumulative loads (serve + update + migration) — the digest
  /// surface the identity tests compare against EpochServer::loads().
  [[nodiscard]] const core::LoadMap& loads() const noexcept {
    return loads_;
  }
  [[nodiscard]] const std::vector<serve::EpochRecord>& epochLog()
      const noexcept {
    return log_;
  }

 private:
  void handshake();
  /// Closes every link (workers see end-of-stream). Idempotent.
  void closeAll() noexcept;
  /// Decodes a worker frame expected to be `want`; an Error frame
  /// rethrows the shipped failure with the shard's attribution.
  [[nodiscard]] Frame expect(int shard, FrameType want,
                             std::uint64_t epoch);

  const net::Tree* tree_;
  int numObjects_;
  ShardOptions options_;
  std::vector<FramedTransport*> links_;
  std::string transportName_;
  core::LoadMap loads_;
  core::LoadMap serveLoads_;
  serve::DriftTrigger drift_;
  std::vector<serve::EpochRecord> log_;
  bool served_ = false;
};

}  // namespace hbn::shard
