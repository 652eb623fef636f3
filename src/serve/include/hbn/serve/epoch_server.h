// EpochServer — the streaming request-serving engine.
//
// Consumes a RequestStream in fixed-size epochs through a three-stage
// pipeline (see docs/serving.md for the full diagram):
//
//   ingest   epoch N+1 is pulled, validated and bucketed by object on a
//            dedicated thread (EpochIngest, double-buffered) while
//            epoch N is being served — bucketing cost leaves the
//            critical path.
//   serve    the epoch's objects are split over the worker threads by
//            work (contiguous request-weighted cuts of the object
//            range: requests plus a fixed cost per touched object):
//            every worker serves whole objects through
//            OnlinePolicy::serveShard with its own scratch and LoadMap,
//            then aggregates each object's requests and refreshes its
//            share of the lower bound into its own delta, so the hot
//            path performs no synchronisation and the merged result —
//            integer edge loads, bound minima, replication counts, copy
//            sets — is bit-identical for 1 vs N threads.
//   re-place the paper's §4 dynamic-to-static handoff runs without
//            stopping the world: when realised serve congestion drifts
//            a configurable factor above the analytic lower bound, the
//            policy opens a HandoffPass over the trigger-time
//            aggregated frequencies (zero-copy: epochs aggregate after
//            they serve, so an object's row is still bit-equal to its
//            trigger-time value when its lazy target is queried — see
//            the HandoffPass contract), and the pass joins the pending
//            queue the workers read (the serve thread mutates it only
//            between worker regions). Each object migrates lazily —
//            on its next touch, or in the end-of-stream drain — with
//            its Steiner migration traffic charged exactly once, so the
//            final ServeReport counters are bit-identical to barrier
//            mode; only the *timing* of migration work moves off the
//            drift epoch, which is what flattens the p99 spike.
//
// ServeOptions.pipeline = false restores the barrier engine: ingest
// runs inline and every handoff pass is drained immediately inside the
// drift epoch. Both modes assemble identical epochs and apply identical
// per-object migrations, so counters, loads and copy sets agree bit for
// bit; wall-clock fields (epoch/latency percentiles) are where they
// differ.
//
// serve() loops over two public epoch steps, serveBatch() and
// replaceNow(); the shard worker drives the same two over a server
// restricted to its objects, so the §4 epoch step exists once.
//
// The drift trigger measures *serve-only* congestion (migration traffic
// excluded) against the lower bound in both modes, so the trigger
// schedule is mode-independent even though migration lands at different
// times. The policy itself is pluggable: ServeOptions.policy is an
// OnlinePolicyRegistry spec, so every registered policy (tree-counters,
// static:placement=..., full-replication, owner-only, ...) serves
// through the same engine. Policies with a fixed configuration opt out
// via OnlinePolicy::migratable() and the drift pass never runs.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/drift.h"
#include "hbn/serve/pipeline.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/fault.h"
#include "hbn/util/stats.h"
#include "hbn/workload/workload.h"

namespace hbn::serve {

using workload::ObjectId;

/// Serving knobs.
struct ServeOptions {
  /// Requests per epoch (the only per-request buffering the server does).
  std::size_t epochSize = 1 << 16;
  /// Worker threads for the per-epoch object sharding; 0 = all cores.
  int threads = 1;
  /// Online policy spec (OnlinePolicyRegistry grammar,
  /// `name[:key=value,...]` — e.g. "tree-counters:threshold=4" or
  /// "static:placement=extended-nibble"). Parsed at construction;
  /// unknown names or options throw std::invalid_argument there.
  std::string policy = "tree-counters";
  /// Re-placement triggers when, since the last re-placement (or the
  /// start), realised serve congestion grew more than `replaceDrift` ×
  /// the growth of the analytic lower bound — i.e. the current copy
  /// configuration is paying a factor above what the aggregated
  /// frequencies say is unavoidable. <= 0 disables the pass. The
  /// default is a safety valve: the replicate/invalidate strategy's
  /// intrinsic churn sits near growth factor ~2.5 on skewed streams, so
  /// 3.0 fires only when the copy configuration is genuinely stale
  /// (e.g. slow adaptation under a high replication threshold).
  double replaceDrift = 3.0;
  /// Pipelined serving (default): threaded double-buffered ingest plus
  /// lazy per-object handoff application. false = barrier mode
  /// (inline ingest, stop-the-world handoffs) — same results, spikier
  /// tails.
  bool pipeline = true;
  /// Reservoir capacity for run-level request-latency sampling;
  /// 0 disables latency percentiles.
  std::size_t latencySample = 4096;
  /// Directory for epoch-boundary checkpoints (hbn-checkpoint v2, see
  /// hbn/serve/checkpoint.h); empty disables checkpointing. A
  /// checkpoint drains every pending handoff pass first, so restoring
  /// it plus re-serving the rest of the stream is bit-identical to an
  /// uninterrupted run.
  std::string checkpointDir;
  /// Epochs between checkpoints (>= 1); only read when checkpointDir is
  /// set.
  std::uint64_t checkpointEvery = 1;
  /// Pipeline stall watchdog: when the ingest thread has not produced
  /// an epoch within this many milliseconds, the serve thread assembles
  /// the epoch inline (degraded mode — the barrier engine's behaviour
  /// for that epoch) instead of hanging. <= 0 waits forever. Ignored in
  /// barrier mode, where ingest is inline anyway.
  double stallTimeoutMs = 0.0;
  /// Bounded retry on handoff publication failure: how many times
  /// beginning a §4 pass may be retried before the epoch fails with
  /// serve::Error{Handoff}; retry k first backs off k milliseconds.
  int handoffRetries = 3;
  /// Deterministic fault injection (util::FaultInjector specs —
  /// ingest-stall@epochN, shard-throw@epochN:shardM, handoff-fail@
  /// epochN); null injects nothing. Shared so the CLI, tests and
  /// benchmarks can inspect trigger counts after the run.
  std::shared_ptr<util::FaultInjector> faults;
};

/// One epoch's record in the serve log.
struct EpochRecord {
  std::uint64_t index = 0;
  std::uint64_t requests = 0;
  double wallMs = 0.0;
  /// Cumulative realised congestion after this epoch (serve + update +
  /// migration traffic charged so far — in pipelined mode migrations
  /// land when objects are touched, so the per-epoch trajectory differs
  /// from barrier mode even though the end-of-run total is identical).
  double congestion = 0.0;
  /// Analytic offline lower bound of the cumulative frequencies.
  double lowerBound = 0.0;
  /// congestion / lowerBound (1 when both zero, +inf when only LB is 0).
  /// Consumers serialising epoch records should expect the +inf case:
  /// util::JsonRecords emits non-finite doubles as null and parses null
  /// back as NaN, so emit→parse→emit is a fixed point at the text level
  /// (tests/serve_test.cpp pins this down).
  double ratio = 0.0;
  /// Request-latency percentiles of this epoch's arrival-stamp samples
  /// (epoch completion − arrival), milliseconds; 0 with sampling off.
  double latencyMsP50 = 0.0;
  double latencyMsP99 = 0.0;
  double latencyMsP999 = 0.0;
  /// Serve-worker request imbalance: max / mean requests served per
  /// worker this epoch (1 = perfectly balanced, also with one worker or
  /// no requests). Deterministic for a given stream and thread count;
  /// 0 in sharded runs, whose workers do not report it.
  double workerImbalance = 0.0;
  bool replaced = false;
  /// The stall watchdog fired and the serve thread assembled this epoch
  /// inline (barrier-engine fallback; contents still bit-identical).
  bool degraded = false;
  /// A checkpoint was written at this epoch's boundary (after draining
  /// pending passes — congestion above therefore includes migration).
  bool checkpointed = false;
};

/// Aggregate outcome of one serve() run.
struct ServeReport {
  /// The policy spec that produced this report, plus the policy's own
  /// diagnostics (OnlinePolicy::metrics()) at the end of the run — so
  /// an emitted report can say what produced it.
  std::string policy;
  std::map<std::string, double> policyMetrics;
  /// Whether the pipelined engine produced this report.
  bool pipeline = true;
  std::uint64_t totalRequests = 0;
  std::uint64_t epochs = 0;
  double wallMs = 0.0;
  double requestsPerSec = 0.0;
  /// Epoch wall-clock latency percentiles.
  double epochMsP50 = 0.0;
  double epochMsP99 = 0.0;
  double epochMsP999 = 0.0;
  /// Request-latency percentiles over the run's reservoir sample
  /// (milliseconds; 0 when latencySamples == 0).
  double latencyMsP50 = 0.0;
  double latencyMsP99 = 0.0;
  double latencyMsP999 = 0.0;
  /// Request latencies offered to the reservoir over the server's
  /// lifetime (the sample the percentiles estimate from is capped at
  /// ServeOptions.latencySample).
  std::uint64_t latencySamples = 0;
  /// Final cumulative congestion / offline lower bound / their ratio.
  double congestion = 0.0;
  double lowerBound = 0.0;
  double ratio = 0.0;
  std::uint64_t replacements = 0;
  core::Count replications = 0;
  core::Count invalidations = 0;
  /// Median over the run's epochs of EpochRecord::workerImbalance.
  double workerImbalance = 0.0;
  /// Bytes of per-request buffering the server ever holds at once —
  /// proportional to the epoch (× the two pipeline slots), never to
  /// the stream.
  std::uint64_t epochBufferBytes = 0;
  /// Robustness counters (server lifetime, so they survive a restore):
  /// epochs assembled inline by the stall watchdog, handoff publication
  /// retries consumed, and checkpoints written.
  std::uint64_t degradedEpochs = 0;
  std::uint64_t handoffRetries = 0;
  std::uint64_t checkpoints = 0;
  /// Checkpoint cost of this server instance (wall-clock, so not
  /// restored and never part of a digest): the checkpoints it wrote
  /// itself (`checkpoints` minus any restored count), the total
  /// milliseconds spent writing them (snapshot, encode, file write and
  /// publish), and the size of the last one (0 before any).
  std::uint64_t checkpointWrites = 0;
  double checkpointMs = 0.0;
  std::uint64_t checkpointBytes = 0;
};

// The one writer of the serve records' JSON keys. hbn_serve --json and
// the serving experiments' BENCH rows call these, adding only their
// run-context keys (stream, seed, threads, ...); a new report field
// gets its key here and nowhere else. `Sink` is util::JsonRecords or
// engine::BenchReporter (both have the field() overload set).
namespace detail {
/// Every record counts the requests it covers.
template <class Sink>
void writeRequests(Sink& sink, std::uint64_t requests) {
  sink.field("requests", requests);
}
/// The paper's quantities and the run's latency at one point, under
/// member names EpochRecord and ServeReport share.
template <class Sink, class Record>
void writeServingFields(Sink& sink, const Record& r) {
  sink.field("wall_ms", r.wallMs);
  sink.field("congestion", r.congestion);
  sink.field("lower_bound", r.lowerBound);
  // +inf (positive congestion over a zero bound) is emitted as null.
  sink.field("ratio", r.ratio);
  sink.field("latency_ms_p50", r.latencyMsP50);
  sink.field("latency_ms_p99", r.latencyMsP99);
  sink.field("latency_ms_p999", r.latencyMsP999);
  sink.field("worker_imbalance", r.workerImbalance);
}
/// Copy-set churn and the policy's own diagnostics (keys already
/// "policy."-prefixed), under member names ServeReport and
/// shard::ShardBreakdown share.
template <class Sink, class Record>
void writePolicyFields(Sink& sink, const Record& r) {
  sink.field("replications", r.replications);
  sink.field("invalidations", r.invalidations);
  for (const auto& [key, value] : r.policyMetrics) sink.field(key, value);
}
}  // namespace detail

/// One epoch record's fields (docs/serving.md lists keys and units).
template <class Sink>
void writeEpochFields(Sink& sink, const EpochRecord& r) {
  sink.field("epoch", r.index);
  detail::writeRequests(sink, r.requests);
  detail::writeServingFields(sink, r);
  sink.field("replaced", r.replaced);
  sink.field("degraded", r.degraded);
  sink.field("checkpointed", r.checkpointed);
}

/// A run's summary fields (docs/serving.md lists keys and units).
template <class Sink>
void writeReportFields(Sink& sink, const ServeReport& r) {
  sink.field("policy", r.policy);
  sink.field("pipeline", r.pipeline);
  detail::writeRequests(sink, r.totalRequests);
  sink.field("epochs", r.epochs);
  detail::writeServingFields(sink, r);
  sink.field("requests_per_sec", r.requestsPerSec);
  sink.field("epoch_ms_p50", r.epochMsP50);
  sink.field("epoch_ms_p99", r.epochMsP99);
  sink.field("epoch_ms_p999", r.epochMsP999);
  sink.field("latency_samples", r.latencySamples);
  sink.field("replacements", r.replacements);
  sink.field("degraded_epochs", r.degradedEpochs);
  sink.field("handoff_retries", r.handoffRetries);
  sink.field("checkpoints", r.checkpoints);
  sink.field("checkpoint_writes", r.checkpointWrites);
  sink.field("checkpoint_ms", r.checkpointMs);
  sink.field("checkpoint_bytes", r.checkpointBytes);
  detail::writePolicyFields(sink, r);
}

/// Finishes a run's report the same way in both engines: throughput,
/// epoch and request-latency percentiles, and the ratio of the
/// (already set) congestion to the lower bound.
void finishReport(ServeReport& report, double wallMs,
                  const util::Accumulator& epochMs,
                  const util::ReservoirSampler& latency);

/// Request latency of one finished epoch: each fill chunk's arrival
/// stamp against `done` is one sample (ms), summarised into `record`
/// and fed to the run's `latency` reservoir. Wall-clock only.
void recordEpochLatency(std::span<const EpochBatch::Arrival> arrivals,
                        EpochBatch::Clock::time_point done,
                        EpochRecord& record,
                        util::ReservoirSampler& latency,
                        std::vector<double>& scratch);

class EpochServer {
 public:
  /// `rooted` must outlive the server. Objects start with one copy on
  /// the first processor. `owned` (numObjects entries, empty = all)
  /// restricts serving and migration to a shard's objects; aggregation
  /// still absorbs every event, so the frequency matrix and lower bound
  /// stay the unrestricted ones.
  EpochServer(const net::RootedTree& rooted, int numObjects,
              const ServeOptions& options = {},
              std::vector<bool> owned = {});

  /// Drains `stream` epoch by epoch; returns the aggregate report.
  /// Callable repeatedly — state (copy sets, loads, aggregated
  /// frequencies) persists, so a second call continues serving. Every
  /// pending handoff pass is fully drained before returning, so copy
  /// sets and loads observed between calls match barrier mode.
  ServeReport serve(RequestStream& stream);

  /// One epoch step: splits `batch`'s objects over the workers by
  /// work (requests plus a fixed cost per touched object); each worker
  /// serves its owned objects (stage 2) and
  /// aggregates every event of its objects; then merges and retires
  /// applied passes.
  /// Returns the epoch's serve + update loads, valid until the next
  /// step. `epoch` is the absolute index faults and errors name.
  const core::LoadMap& serveBatch(const EpochBatch& batch,
                                  std::uint64_t epoch);

  /// The barrier-mode §4 handoff: opens a pass and migrates every
  /// owned object through it now. Returns the migration loads, valid
  /// until the next step.
  const core::LoadMap& replaceNow(std::uint64_t epoch);

  /// Per-epoch records of all serve() calls so far.
  [[nodiscard]] const std::vector<EpochRecord>& epochLog() const noexcept {
    return log_;
  }
  /// Cumulative realised loads (service + update + migration traffic).
  [[nodiscard]] const core::LoadMap& loads() const noexcept { return loads_; }
  /// Cumulative aggregated request frequencies.
  [[nodiscard]] const workload::Workload& aggregated() const noexcept {
    return aggregated_;
  }
  /// Current copy locations of `x`, ascending.
  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const {
    return policy_->copySet(x);
  }
  /// The serving policy instance (for diagnostics/introspection).
  [[nodiscard]] const dynamic::OnlinePolicy& policy() const noexcept {
    return *policy_;
  }
  [[nodiscard]] int numObjects() const noexcept { return numObjects_; }
  [[nodiscard]] double lowerBound() const { return lowerBound_.congestion(); }
  /// Lifetime counters over the owned objects.
  [[nodiscard]] core::Count replications() const { return replications_; }
  [[nodiscard]] core::Count invalidations() const { return invalidations_; }
  [[nodiscard]] std::uint64_t ownedRequests() const { return ownedRequests_; }

  /// Captures the server's full resumable state as a checkpoint. The
  /// server must be quiescent (no pending handoff passes — true between
  /// serve() calls and at checkpoint boundaries inside one); throws
  /// std::logic_error otherwise.
  [[nodiscard]] CheckpointData snapshotState() const;

  /// Rebuilds the server from a checkpoint taken by an identically
  /// configured server (same topology, objects, canonical policy spec,
  /// epoch size and drift factor — a mismatch in any is named in the
  /// std::invalid_argument it throws).
  /// Only valid on a fresh server that has not served anything; throws
  /// std::logic_error when it has, std::invalid_argument when the
  /// checkpoint does not match this server. The request stream is NOT
  /// part of the snapshot — resume a deterministic stream by rebuilding
  /// it and discarding CheckpointData::servedTotal events
  /// (serve::skipRequests) before the next serve() call.
  void restoreFrom(const CheckpointData& data);

  /// Requests consumed over the server's lifetime (including the
  /// restored prefix) — what a resumed stream must skip.
  [[nodiscard]] std::uint64_t servedTotal() const noexcept {
    return servedTotal_;
  }

 private:
  /// One pending §4 handoff: the policy's pass plus retirement
  /// bookkeeping. `applied` counts objects migrated through it (workers
  /// bump it concurrently); the pass retires once every object has
  /// applied it.
  struct PassState {
    std::unique_ptr<dynamic::HandoffPass> pass;
    std::atomic<std::int64_t> applied{0};
  };

  /// One serve worker's state, reused across epochs. `acc` batches
  /// serveShard's path charges and flushes exact integer loads, so the
  /// merge is bit-identical for any worker count. Cache-line aligned:
  /// workers write their own state concurrently.
  struct alignas(64) Worker {
    explicit Worker(const dynamic::OnlinePolicy& policy, int edgeCount)
        : loads(edgeCount),
          migration(edgeCount),
          boundDelta(edgeCount),
          acc(policy.flatView()) {}
    core::LoadMap loads;
    core::LoadMap migration;
    /// This epoch's change to the lower bound's edge minima
    /// (IncrementalLowerBound::absorbObject), merged after the join.
    core::LoadMap boundDelta;
    std::vector<core::Count> boundScratch;
    dynamic::ShardStats stats;
    std::uint64_t requests = 0;
    dynamic::ServeScratch scratch;
    core::FlatLoadAccumulator acc;
  };

  [[nodiscard]] bool owns(ObjectId x) const {
    return owned_.empty() || owned_[static_cast<std::size_t>(x)];
  }
  /// Builds workers_ on the first step, keeping construction light.
  void ensureWorkers();
  /// Opens a HandoffPass over aggregated_ (zero-copy; see the
  /// HandoffPass row-stability contract) and queues it. Failures
  /// (injected or real) are retried up to ServeOptions.handoffRetries
  /// times with escalating backoff; exhaustion throws
  /// serve::Error{Handoff, epoch}.
  void beginPass(std::uint64_t epoch);
  /// Applies every pass still pending for `x` up to `targetVersion`,
  /// charging migration traffic into `worker`'s migration loads. Called
  /// from workers (the cuts make x exclusive). `retired` counts
  /// the passes already popped, read on the serve thread before the
  /// region: pendingPasses_[i] is pass version retired + i + 1.
  void applyPendingMigrations(ObjectId x, int index, Worker& worker,
                              std::uint64_t retired,
                              std::uint64_t targetVersion);
  /// Applies all pending passes to every owned object now (the barrier
  /// drain and the end-of-stream drain), merging migration traffic into
  /// loads_ and returning it.
  const core::LoadMap& drainAllPasses();
  /// Pops and frees passes every owned object has applied off the front
  /// of the pending queue. Serve thread, between worker regions.
  void retireAppliedPasses();
  /// snapshotState with an explicit completed-epoch count (the serve
  /// loop checkpoints before pushing the epoch's record).
  [[nodiscard]] CheckpointData snapshotStateAt(std::uint64_t epochs) const;
  /// Writes the checkpoint after `epochs` completed epochs; failures
  /// become serve::Error{Checkpoint} naming the last of them.
  void writeCheckpointAt(std::uint64_t epochs);

  const net::RootedTree* rooted_;
  int numObjects_;
  ServeOptions options_;
  /// Served objects (empty = all); a pass retires at ownedCount_.
  std::vector<bool> owned_;
  std::int64_t ownedCount_;
  std::unique_ptr<dynamic::OnlinePolicy> policy_;
  workload::Workload aggregated_;
  /// Running analytic lower bound of aggregated_, refreshed per epoch
  /// for the touched objects only — O(touched · |V|) instead of a full
  /// O(|X| · |V|) recomputation, which dominated per-epoch cost (and
  /// with it the pipelined queueing latency) at large object counts.
  /// The serve workers refresh it per object (absorbObject into their
  /// own deltas) inside the worker region.
  core::IncrementalLowerBound lowerBound_;
  core::LoadMap loads_;
  /// Serve + update traffic only (no migration): the drift trigger's
  /// input, so the trigger schedule is identical in pipelined and
  /// barrier mode.
  core::LoadMap serveLoads_;
  std::vector<EpochRecord> log_;
  /// Epochs completed before log_ began (nonzero after restoreFrom):
  /// the absolute index of epoch record i is logBase_ + i, and fault
  /// specs address epochs in absolute terms.
  std::uint64_t logBase_ = 0;
  std::uint64_t servedTotal_ = 0;
  std::uint64_t ownedRequests_ = 0;
  core::Count replications_ = 0;
  core::Count invalidations_ = 0;
  std::uint64_t replacements_ = 0;
  /// Per-worker state, the last step's object cuts (workers + 1
  /// entries), its merged deltas and its worker request imbalance.
  std::vector<Worker> workers_;
  std::vector<ObjectId> cuts_;
  double stepImbalance_ = 1.0;
  core::LoadMap stepLoads_{0};
  core::LoadMap stepMigration_{0};
  /// The §4 drift trigger (marks at the last re-placement plus the
  /// shared comparison — see hbn/serve/drift.h; the shard coordinator
  /// drives the identical struct).
  DriftTrigger drift_;
  /// Lazy handoff machinery: pending passes in creation order and
  /// per-object applied-pass counts. Workers read pendingPasses_; only
  /// the serve thread mutates it, between worker regions
  /// (core::parallelForRanges, whose join orders every read before the
  /// next mutation).
  std::deque<std::unique_ptr<PassState>> pendingPasses_;
  std::vector<std::uint64_t> appliedVersion_;
  std::uint64_t passesBegun_ = 0;
  /// Robustness counters (see ServeReport).
  std::uint64_t degradedEpochs_ = 0;
  std::uint64_t handoffRetriesUsed_ = 0;
  std::uint64_t checkpointsWritten_ = 0;
  std::uint64_t checkpointWrites_ = 0;
  double checkpointMs_ = 0.0;
  std::uint64_t checkpointBytes_ = 0;
  /// Run-level request-latency reservoir (persists across serve calls).
  util::ReservoirSampler latency_;
};

/// The bit-identity digest every determinism comparison uses (1-vs-N
/// threads, barrier-vs-pipelined, single-process-vs-sharded,
/// kill+restore): congestion, lower bound and ratio at round-trip
/// precision, the replacement/replication/invalidation counters and
/// every edge load. This overload needs no copy sets, so it also
/// digests a shard coordinator's run.
[[nodiscard]] std::string stateDigest(const ServeReport& report,
                                      const core::LoadMap& loads);
/// The same plus every object's copy set.
[[nodiscard]] std::string stateDigest(const EpochServer& server,
                                      const ServeReport& report);

}  // namespace hbn::serve
