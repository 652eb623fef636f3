#include "hbn/serve/epoch_server.h"

#include <algorithm>
#include <bit>
#include <filesystem>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "hbn/core/lower_bound.h"
#include "hbn/core/parallel.h"
#include "hbn/dynamic/harness.h"
#include "hbn/serve/error.h"
#include "hbn/util/bytes.h"
#include "hbn/util/timer.h"
#include "hbn/workload/serialize.h"

namespace hbn::serve {
namespace {

/// Base backoff between handoff publication retries: retry k first
/// sleeps k times this.
constexpr double kHandoffBackoffMs = 1.0;

double elapsedMs(EpochBatch::Clock::time_point from,
                 EpochBatch::Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

}  // namespace

void finishReport(ServeReport& report, double wallMs,
                  const util::Accumulator& epochMs,
                  const util::ReservoirSampler& latency) {
  report.wallMs = wallMs;
  report.requestsPerSec =
      wallMs > 0.0 ? static_cast<double>(report.totalRequests) / wallMs * 1e3
                   : 0.0;
  report.epochMsP50 = epochMs.empty() ? 0.0 : epochMs.percentile(50.0);
  report.epochMsP99 = epochMs.empty() ? 0.0 : epochMs.percentile(99.0);
  report.epochMsP999 = epochMs.empty() ? 0.0 : epochMs.percentile(99.9);
  report.latencyMsP50 = latency.empty() ? 0.0 : latency.percentile(50.0);
  report.latencyMsP99 = latency.empty() ? 0.0 : latency.percentile(99.0);
  report.latencyMsP999 = latency.empty() ? 0.0 : latency.percentile(99.9);
  report.latencySamples = latency.seen();
  report.ratio =
      dynamic::competitiveRatio(report.congestion, report.lowerBound);
}

void recordEpochLatency(std::span<const EpochBatch::Arrival> arrivals,
                        EpochBatch::Clock::time_point done,
                        EpochRecord& record,
                        util::ReservoirSampler& latency,
                        std::vector<double>& scratch) {
  if (arrivals.empty()) return;
  scratch.clear();
  for (const auto& [stamp, count] : arrivals) {
    scratch.push_back(elapsedMs(stamp, done));
    (void)count;
  }
  std::sort(scratch.begin(), scratch.end());
  record.latencyMsP50 = util::percentileSorted(scratch, 50.0);
  record.latencyMsP99 = util::percentileSorted(scratch, 99.0);
  record.latencyMsP999 = util::percentileSorted(scratch, 99.9);
  for (const double sample : scratch) latency.add(sample);
}

EpochServer::EpochServer(const net::RootedTree& rooted, int numObjects,
                         const ServeOptions& options, std::vector<bool> owned)
    : rooted_(&rooted),
      numObjects_(numObjects),
      options_(options),
      owned_(std::move(owned)),
      ownedCount_(owned_.empty()
                      ? numObjects
                      : std::count(owned_.begin(), owned_.end(), true)),
      policy_(dynamic::OnlinePolicyRegistry::global()
                  .create(options.policy)
                  ->build(rooted, numObjects,
                          rooted.tree().processors().front())),
      aggregated_(numObjects, rooted.tree().nodeCount()),
      lowerBound_(rooted),
      loads_(rooted.tree().edgeCount()),
      serveLoads_(rooted.tree().edgeCount()),
      appliedVersion_(static_cast<std::size_t>(numObjects), 0),
      latency_(options.latencySample) {
  drift_.replaceDrift = options.replaceDrift;
  if (options.epochSize < 1) {
    throw std::invalid_argument("EpochServer: epochSize >= 1");
  }
  if (!options.checkpointDir.empty() && options.checkpointEvery < 1) {
    throw std::invalid_argument("EpochServer: checkpointEvery >= 1");
  }
  if (options.handoffRetries < 0) {
    throw std::invalid_argument("EpochServer: handoffRetries >= 0");
  }
  if (!owned_.empty() &&
      owned_.size() != static_cast<std::size_t>(numObjects)) {
    throw std::invalid_argument("EpochServer: ownership mask size");
  }
}

void EpochServer::ensureWorkers() {
  if (!workers_.empty()) return;
  const int edgeCount = rooted_->tree().edgeCount();
  const int count = core::resolveWorkerCount(options_.threads, numObjects_);
  workers_.reserve(static_cast<std::size_t>(count));
  for (int w = 0; w < count; ++w) workers_.emplace_back(*policy_, edgeCount);
  cuts_.resize(static_cast<std::size_t>(count) + 1);
  stepLoads_ = core::LoadMap(edgeCount);
  stepMigration_ = core::LoadMap(edgeCount);
}

ServeReport EpochServer::serve(RequestStream& stream) {
  const net::Tree& tree = rooted_->tree();

  // Stage 1: the (possibly threaded) ingest keeps the next epoch
  // validated and bucketed while this thread serves the current one.
  // Both modes run the same fill loop, so epoch boundaries are
  // identical and pipeline on/off runs are comparable request for
  // request.
  EpochIngest ingest(stream, tree, numObjects_, options_.epochSize,
                     options_.pipeline, options_.faults.get(),
                     logBase_ + log_.size());

  ServeReport report;
  report.policy = options_.policy;
  report.pipeline = options_.pipeline;
  report.epochBufferBytes = ingest.bufferBytes();
  util::Accumulator epochMs;
  util::Accumulator imbalance;
  std::vector<double> epochLatency;
  util::Timer total;

  for (;;) {
    // The watchdogged acquire: past stallTimeoutMs the serve thread
    // assembles an epoch no filler has begun itself (batch->degraded)
    // instead of hanging on a stalled ingest thread.
    EpochBatch* const batch = ingest.acquire(options_.stallTimeoutMs);
    if (batch == nullptr) break;
    util::Timer epochTimer;
    const std::uint64_t epochIndex = logBase_ + log_.size();
    checkEpochOrder(*batch, epochIndex);
    if (batch->degraded) ++degradedEpochs_;

    // Stages 2 and 3: serve, merge, aggregate, retire.
    serveBatch(*batch, epochIndex);

    // Epoch bookkeeping and the adaptive re-placement trigger.
    EpochRecord record;
    record.index = epochIndex;
    record.requests = batch->n;
    record.workerImbalance = stepImbalance_;
    record.degraded = batch->degraded;
    record.lowerBound = lowerBound_.congestion();
    record.congestion = loads_.congestion(tree);
    // Drift is measured since the last re-placement (see
    // hbn/serve/drift.h for the shared trigger arithmetic). Migration
    // traffic is excluded from the trigger so that lazy (pipelined) and
    // immediate (barrier) migration timing cannot skew when the next
    // pass fires.
    const double serveCongestion = serveLoads_.congestion(tree);
    const bool driftFired = drift_.fired(serveCongestion, record.lowerBound);
    // A pass also begins when the policy itself asks for one
    // (wantsHandoff — e.g. adaptive committing per-object routing
    // switches), independent of the drift knob.
    if (policy_->migratable() && (driftFired || policy_->wantsHandoff())) {
      if (options_.pipeline) {
        beginPass(epochIndex);
      } else {
        // Barrier mode: stop the world and migrate every object inside
        // the drift epoch, like the pre-pipeline engine.
        replaceNow(epochIndex);
        record.congestion = loads_.congestion(tree);  // migration included
      }
      ++replacements_;
      record.replaced = true;
      drift_.reset(serveCongestion, record.lowerBound);
    }
    // Epoch-boundary checkpoint. Draining the pending passes first
    // keeps the snapshot quiescent (no pass state to serialize) and is
    // bit-neutral: a pass applies early here exactly what lazy
    // application would have charged on each object's next touch (the
    // row-stability contract), and serveLoads_ — the drift trigger's
    // input — never carries migration traffic, so the trigger schedule
    // is unchanged too.
    if (!options_.checkpointDir.empty() &&
        (epochIndex + 1) % options_.checkpointEvery == 0) {
      drainAllPasses();
      retireAppliedPasses();
      record.congestion = loads_.congestion(tree);  // migration included
      writeCheckpointAt(epochIndex + 1);
      record.checkpointed = true;
    }
    record.ratio =
        dynamic::competitiveRatio(record.congestion, record.lowerBound);
    record.wallMs = epochTimer.millis();
    if (options_.latencySample > 0) {
      recordEpochLatency(batch->arrivals, EpochBatch::Clock::now(), record,
                         latency_, epochLatency);
    }

    epochMs.add(record.wallMs);
    imbalance.add(record.workerImbalance);
    log_.push_back(record);
    ++report.epochs;
    report.totalRequests += batch->n;
    ingest.release(batch);
  }

  // End-of-stream drain: apply every still-pending pass so copy sets,
  // loads and counters observed after serve() match barrier mode. The
  // drain is outside any epoch, so it never shows up in epoch or
  // latency percentiles — in a live system it is exactly the work that
  // keeps happening in the background after the last request.
  drainAllPasses();
  retireAppliedPasses();

  // Final checkpoint: a restart resumes from exactly end-of-run state
  // even when the last epoch missed the cadence (skipped when the last
  // epoch already checkpointed this boundary).
  if (!options_.checkpointDir.empty() &&
      (log_.empty() || !log_.back().checkpointed)) {
    writeCheckpointAt(logBase_ + log_.size());
    if (!log_.empty()) log_.back().checkpointed = true;
  }

  report.congestion = loads_.congestion(tree);
  report.lowerBound = lowerBound_.congestion();
  report.replacements = replacements_;
  report.replications = replications_;
  report.invalidations = invalidations_;
  report.workerImbalance = imbalance.empty() ? 0.0 : imbalance.median();
  report.degradedEpochs = degradedEpochs_;
  report.handoffRetries = handoffRetriesUsed_;
  report.checkpoints = checkpointsWritten_;
  report.checkpointWrites = checkpointWrites_;
  report.checkpointMs = checkpointMs_;
  report.checkpointBytes = checkpointBytes_;
  report.policyMetrics = policy_->metrics();
  finishReport(report, total.millis(), epochMs, latency_);
  return report;
}

const core::LoadMap& EpochServer::serveBatch(const EpochBatch& batch,
                                             std::uint64_t epoch) {
  ensureWorkers();
  util::FaultInjector* const faults = options_.faults.get();

  // Stages 2 and 3: split the epoch's objects over the workers by
  // work (request-weighted cuts from the CSR offsets — whole objects per
  // worker, so a skewed epoch whose hot objects have the lowest ids
  // still spreads evenly), with per-worker loads, stats,
  // scratch and lower-bound delta; no shared mutable state. Each
  // touched object's task runs, in order: any handoff passes it has
  // not migrated through yet (lazy application; exclusive by the
  // cuts), serveShard against the up-to-date copy configuration (owned
  // objects only) — so per-object state trajectories match barrier
  // mode exactly — and then the aggregation of its requests with its
  // lower-bound refresh (every touched object, owned or not, so the
  // frequency matrix and bound stay the unrestricted ones). Aggregating
  // x only AFTER serving x is what lets handoff passes read the live
  // matrix with zero copy: a pass applies to x on x's first touch after
  // the trigger, and row x only mutates in x's own task — so at
  // application time the row is bit-equal to its trigger-time value.
  for (Worker& worker : workers_) {
    worker.loads.clear();
    worker.migration.clear();
    worker.boundDelta.clear();
    worker.stats = {};
    worker.requests = 0;
  }
  const std::uint64_t retired = passesBegun_ - pendingPasses_.size();
  const std::uint64_t targetVersion = passesBegun_;
  // A touched object's fixed work — absorbObject's two walks over the
  // |V| tree nodes plus serveShard's per-call setup — weighs about |V|
  // requests (on the adaptive policy the measured optimum is flat from
  // |V| to 4|V|; the Zipf epochs start to lose at 4|V|).
  core::requestWeightedCuts(
      batch.offsets, static_cast<std::size_t>(rooted_->tree().nodeCount()),
      cuts_);
  core::parallelForRanges(cuts_, [&](ObjectId first, ObjectId last,
                                     int index) {
    // Injected worker failure, once per worker at the start of its
    // range (empty or not): thrown as a structured Serve error,
    // propagated deterministically by parallelForRanges (lowest worker
    // wins) and through serve() — the kill the checkpoint recovery
    // tests restart from.
    if (faults != nullptr &&
        faults->fire(util::FaultKind::ShardThrow, epoch, index)) {
      throw Error(Stage::Serve, epoch,
                  "injected shard failure (worker " + std::to_string(index) +
                      ")");
    }
    Worker& worker = workers_[static_cast<std::size_t>(index)];
    for (ObjectId x = first; x < last; ++x) {
      const std::size_t begin = batch.offsets[static_cast<std::size_t>(x)];
      const std::size_t end = batch.offsets[static_cast<std::size_t>(x) + 1];
      // Untouched objects keep their stale copy sets — they receive no
      // traffic, so serving state cannot diverge from barrier mode, and
      // deferring them is exactly what keeps the handoff lump out of
      // the epochs (they migrate on a later touch or in the
      // end-of-stream drain).
      if (begin == end) continue;
      const std::span<const RequestEvent> events(batch.bucketed.data() + begin,
                                                 end - begin);
      if (owns(x)) {
        if (appliedVersion_[static_cast<std::size_t>(x)] < targetVersion) {
          applyPendingMigrations(x, index, worker, retired, targetVersion);
        }
        const dynamic::ShardStats stats = policy_->serveShard(
            x, events, worker.loads, worker.scratch, &worker.acc);
        worker.stats.replications += stats.replications;
        worker.stats.invalidations += stats.invalidations;
        worker.requests += end - begin;
      }
      lowerBound_.absorbObject(x, events, aggregated_, worker.boundDelta,
                               worker.boundScratch);
    }
  });

  // Deterministic merge: integer edge loads, bound minima and counters
  // sum the same for any worker count and any cuts. Serve traffic feeds
  // the total, the serve-only map (the drift trigger's input) and the
  // step delta; migration traffic feeds the total only. The lower bound
  // after epoch k still sees the traffic of epochs <= k, exactly as the
  // barrier engine did.
  stepLoads_.clear();
  std::uint64_t maxRequests = 0;
  std::uint64_t stepRequests = 0;
  for (const Worker& worker : workers_) {
    for (core::LoadMap* map : {&loads_, &serveLoads_, &stepLoads_}) {
      map->addEdgeLoads(worker.loads.edgeLoads());
    }
    loads_.addEdgeLoads(worker.migration.edgeLoads());
    lowerBound_.mergeDelta(worker.boundDelta);
    replications_ += worker.stats.replications;
    invalidations_ += worker.stats.invalidations;
    maxRequests = std::max(maxRequests, worker.requests);
    stepRequests += worker.requests;
  }
  ownedRequests_ += stepRequests;
  stepImbalance_ = stepRequests == 0
                       ? 1.0
                       : static_cast<double>(maxRequests) *
                             static_cast<double>(workers_.size()) /
                             static_cast<double>(stepRequests);

  servedTotal_ += batch.n;
  retireAppliedPasses();
  return stepLoads_;
}

const core::LoadMap& EpochServer::replaceNow(std::uint64_t epoch) {
  ensureWorkers();
  beginPass(epoch);
  const core::LoadMap& migration = drainAllPasses();
  retireAppliedPasses();
  return migration;
}

void EpochServer::beginPass(std::uint64_t epoch) {
  // Hand the policy the live aggregated matrix without copying it: a
  // lazy target for object x is only ever queried on x's first touch
  // after this trigger, and because epochs aggregate after they serve,
  // x's row is still bit-equal to its trigger-time value at that
  // moment. Row-local passes (nibble) therefore need no snapshot at
  // all; a policy whose pass reads other rows at target() time must
  // copy inside beginHandoff (see the HandoffPass contract).
  const std::shared_ptr<const workload::Workload> snapshot(
      std::shared_ptr<const workload::Workload>(), &aggregated_);
  auto pass = std::make_unique<PassState>();
  // Bounded retry with escalating backoff. The injected fault fires
  // BEFORE beginHandoff, so a retried attempt re-runs the publication
  // from a policy that never saw the failed one — retries are
  // side-effect-clean by construction.
  util::FaultInjector* const faults = options_.faults.get();
  for (int attempt = 0;; ++attempt) {
    try {
      if (faults != nullptr &&
          faults->fire(util::FaultKind::HandoffFail, epoch, -1)) {
        throw std::runtime_error("injected handoff publication failure");
      }
      pass->pass = policy_->beginHandoff(snapshot,
                                         static_cast<int>(workers_.size()));
      break;
    } catch (const std::exception& e) {
      if (attempt >= options_.handoffRetries) {
        throw Error(Stage::Handoff, epoch, e.what());
      }
      ++handoffRetriesUsed_;
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          kHandoffBackoffMs * (attempt + 1)));
    }
  }
  ++passesBegun_;
  pendingPasses_.push_back(std::move(pass));
}

void EpochServer::applyPendingMigrations(ObjectId x, int index,
                                         Worker& worker,
                                         std::uint64_t retired,
                                         std::uint64_t targetVersion) {
  // §4 handoff, one object at a time: chain through every pass this
  // object has not migrated through yet, in creation order — charging
  // Steiner(current ∪ target) and resetting the copy set per pass, the
  // exact per-object work barrier mode performs inside drift epochs.
  std::uint64_t& applied = appliedVersion_[static_cast<std::size_t>(x)];
  while (applied < targetVersion) {
    PassState& pass =
        *pendingPasses_[static_cast<std::size_t>(applied - retired)];
    const std::vector<net::NodeId> target = pass.pass->target(x, index);
    dynamic::applyHandoffTarget(*policy_, x, target, worker.acc,
                                worker.migration);
    ++applied;
    pass.applied.fetch_add(1, std::memory_order_relaxed);
  }
}

const core::LoadMap& EpochServer::drainAllPasses() {
  stepMigration_.clear();
  if (pendingPasses_.empty()) return stepMigration_;
  for (Worker& worker : workers_) worker.migration.clear();
  const std::uint64_t retired = passesBegun_ - pendingPasses_.size();
  const std::uint64_t targetVersion = passesBegun_;
  core::parallelForObjects(
      numObjects_, options_.threads, [&](ObjectId x, int index) {
        if (appliedVersion_[static_cast<std::size_t>(x)] >= targetVersion ||
            !owns(x)) {
          return;
        }
        applyPendingMigrations(x, index,
                               workers_[static_cast<std::size_t>(index)],
                               retired, targetVersion);
      });
  for (const Worker& worker : workers_) {
    loads_.addEdgeLoads(worker.migration.edgeLoads());
    stepMigration_.addEdgeLoads(worker.migration.edgeLoads());
  }
  return stepMigration_;
}

void EpochServer::retireAppliedPasses() {
  // Serve thread, between epochs: the worker region has joined every
  // worker, so no worker can still be reading a pass popped here.
  while (!pendingPasses_.empty() &&
         pendingPasses_.front()->applied.load(std::memory_order_relaxed) ==
             ownedCount_) {
    pendingPasses_.pop_front();
  }
}

void EpochServer::writeCheckpointAt(std::uint64_t epochs) {
  util::Timer timer;
  try {
    CheckpointData data = snapshotStateAt(epochs);
    // The checkpoint counts itself: a restore from it resumes with the
    // count an uninterrupted run has at this boundary.
    ++data.checkpointsWritten;
    const std::string path =
        writeCheckpointFile(data, options_.checkpointDir);
    checkpointBytes_ = std::filesystem::file_size(path);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    throw Error(Stage::Checkpoint, epochs == 0 ? 0 : epochs - 1, e.what());
  }
  ++checkpointsWritten_;
  ++checkpointWrites_;
  checkpointMs_ += timer.millis();
}

CheckpointData EpochServer::snapshotStateAt(std::uint64_t epochs) const {
  if (!pendingPasses_.empty()) {
    throw std::logic_error(
        "EpochServer: snapshot requires a quiescent server "
        "(handoff passes still pending)");
  }
  const net::Tree& tree = rooted_->tree();
  const int edgeCount = tree.edgeCount();
  CheckpointData data;
  data.policySpec = policy_->spec();
  data.numObjects = numObjects_;
  data.numNodes = tree.nodeCount();
  data.numEdges = edgeCount;
  data.servedTotal = servedTotal_;
  data.epochs = epochs;
  data.replacements = replacements_;
  data.replications = replications_;
  data.invalidations = invalidations_;
  data.passesBegun = passesBegun_;
  data.degradedEpochs = degradedEpochs_;
  data.handoffRetries = handoffRetriesUsed_;
  data.checkpointsWritten = checkpointsWritten_;
  data.serveCongestionMark = drift_.serveCongestionMark;
  data.lowerBoundMark = drift_.lowerBoundMark;
  data.loads.assign(loads_.edgeLoads().begin(), loads_.edgeLoads().end());
  data.serveLoads.assign(serveLoads_.edgeLoads().begin(),
                         serveLoads_.edgeLoads().end());
  data.epochSize = options_.epochSize;
  data.replaceDrift = options_.replaceDrift;
  util::ByteWriter rows;
  workload::encodeRows(aggregated_, rows);
  data.rows = rows.take();
  util::ByteWriter policyState;
  policy_->serializeState(policyState);
  data.policyState = policyState.take();
  return data;
}

CheckpointData EpochServer::snapshotState() const {
  return snapshotStateAt(logBase_ + log_.size());
}

void EpochServer::restoreFrom(const CheckpointData& data) {
  if (servedTotal_ != 0 || !log_.empty() || passesBegun_ != 0 ||
      logBase_ != 0) {
    throw std::logic_error("EpochServer: restoreFrom requires a fresh server");
  }
  const net::Tree& tree = rooted_->tree();
  if (data.policySpec != policy_->spec()) {
    throw std::invalid_argument("checkpoint: policy mismatch (snapshot '" +
                                data.policySpec + "' vs server '" +
                                policy_->spec() + "')");
  }
  const auto edges = static_cast<std::size_t>(tree.edgeCount());
  if (data.numObjects != numObjects_ || data.numNodes != tree.nodeCount() ||
      data.numEdges != tree.edgeCount() || data.loads.size() != edges ||
      data.serveLoads.size() != edges) {
    throw std::invalid_argument(
        "checkpoint: topology mismatch (objects/nodes/edges differ)");
  }
  // The epoch boundaries and the drift trigger's schedule depend on
  // these two knobs, so a restore under other values would serve a
  // different run from the same state.
  if (data.epochSize != options_.epochSize) {
    throw std::invalid_argument(
        "checkpoint: epoch size mismatch (snapshot " +
        std::to_string(data.epochSize) + " vs server " +
        std::to_string(options_.epochSize) + ")");
  }
  if (std::bit_cast<std::uint64_t>(data.replaceDrift) !=
      std::bit_cast<std::uint64_t>(options_.replaceDrift)) {
    std::ostringstream why;
    why << "checkpoint: drift threshold mismatch (snapshot "
        << data.replaceDrift << " vs server " << options_.replaceDrift
        << ")";
    throw std::invalid_argument(why.str());
  }
  // Decoded against this server's dims, so the rows allocate nothing
  // beyond the matrix the server already holds.
  const auto decode = [](std::string_view bytes, const auto& apply) {
    util::ByteReader in(bytes);
    try {
      apply(in);
      in.finish();
    } catch (const std::invalid_argument& e) {
      throw std::invalid_argument(std::string("checkpoint: ") + e.what());
    }
  };
  std::optional<workload::Workload> restored;
  decode(data.rows, [&](util::ByteReader& in) {
    restored = workload::decodeRows(in, numObjects_, tree.nodeCount());
  });
  // Policy state next: nothing of the server has been mutated yet when
  // it throws.
  decode(data.policyState,
         [&](util::ByteReader& in) { policy_->restoreState(in); });
  aggregated_ = std::move(*restored);
  loads_.addEdgeLoads(data.loads);
  serveLoads_.addEdgeLoads(data.serveLoads);
  servedTotal_ = data.servedTotal;
  logBase_ = data.epochs;
  replacements_ = data.replacements;
  replications_ = data.replications;
  invalidations_ = data.invalidations;
  passesBegun_ = data.passesBegun;
  std::fill(appliedVersion_.begin(), appliedVersion_.end(), passesBegun_);
  degradedEpochs_ = data.degradedEpochs;
  handoffRetriesUsed_ = data.handoffRetries;
  checkpointsWritten_ = data.checkpointsWritten;
  drift_.serveCongestionMark = data.serveCongestionMark;
  drift_.lowerBoundMark = data.lowerBoundMark;
  // The one place aggregated_ changes other than absorbObject: bring the
  // incrementally maintained bound up to the restored matrix.
  lowerBound_.rebuild(aggregated_);
}

std::string stateDigest(const ServeReport& report,
                        const core::LoadMap& loads) {
  std::ostringstream oss;
  oss.precision(17);
  oss << report.congestion << '|' << report.lowerBound << '|'
      << report.ratio << '|' << report.replacements << '|'
      << report.replications << '|' << report.invalidations;
  for (const core::Count load : loads.edgeLoads()) oss << ',' << load;
  return oss.str();
}

std::string stateDigest(const EpochServer& server,
                        const ServeReport& report) {
  std::ostringstream oss;
  oss << stateDigest(report, server.loads());
  for (ObjectId x = 0; x < server.numObjects(); ++x) {
    oss << ';';
    for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
  }
  return oss.str();
}

}  // namespace hbn::serve
