// Experiment E15 (robustness extension): fault-tolerant serving.
//
// Measures what fault tolerance costs and proves what it guarantees:
//   * checkpoint overhead — the work checkpointing adds to a run,
//     timed directly: the median of K timed snapshot + file writes on
//     the run's end state, times the checkpoints the run wrote, as a
//     percentage of the uncheckpointed baseline's wall time; the
//     acceptance bound is <= 5%. The wall-clock difference of the two
//     runs (min-of-K each) is reported alongside, informational only:
//     at smoke scale the run writes one checkpoint, and host noise
//     moves that difference by ±10%,
//   * recovery — kill the server mid-run with an injected shard throw,
//     restore the latest epoch-boundary snapshot into a fresh server,
//     re-serve the remaining stream; reports the recovery wall-clock
//     and checks the final load digest is bit-identical to the
//     uninterrupted run,
//   * graceful degradation — an injected ingest stall trips the
//     pipeline watchdog, the stalled epoch is assembled inline, and
//     throughput in degraded mode is reported; the digest again must
//     not move by a single bit.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/net/generators.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/fault.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

constexpr double kOverheadBoundPct = 5.0;
constexpr int kTimingRuns = 3;  ///< min-of-K wall clock per run kind
constexpr int kCheckpointTimings = 5;  ///< median-of-K checkpoint writes

class FaultRecoveryExperiment final : public engine::Experiment {
 public:
  FaultRecoveryExperiment(std::int64_t requests, std::int64_t epoch,
                          std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "fault-recovery";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    namespace fs = std::filesystem;
    const std::uint64_t seed = ctx.resolveSeed(15);
    const std::uint64_t requests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? 2'000'000ULL : 4'000'000ULL);
    const std::size_t epochSize =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : (1u << 14);
    const int objects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_) : 256;
    const std::uint64_t totalEpochs =
        (requests + epochSize - 1) / epochSize;
    const std::uint64_t killEpoch = totalEpochs / 2;

    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    ctx.os() << "E15 — fault-tolerant serving: checkpoint overhead, "
                "kill-and-restore recovery, degraded-mode throughput\nseed="
             << seed << ", " << requests << " requests, epoch=" << epochSize
             << ", objects=" << objects << ", threads=" << ctx.threads
             << ", kill at epoch " << killEpoch << "\n\n";

    // One materialised stream: every phase serves the same requests.
    std::vector<workload::RequestEvent> events(requests);
    {
      workload::StreamParams params;
      params.numObjects = objects;
      params.readFraction = 0.95;
      const auto stream = serve::makeGeneratedStream("skewed", tree, params,
                                                     seed, requests);
      if (stream->fill(events) != requests) {
        throw std::runtime_error("stream under-filled");
      }
    }

    const auto makeOptions = [&] {
      serve::ServeOptions options;
      options.epochSize = epochSize;
      options.threads = ctx.threads;
      options.policy = "tree-counters";
      return options;
    };
    struct Timed {
      /// The fastest of K runs (min-of-K wall clock).
      serve::ServeReport report;
      std::string digest;
      /// Median time of one checkpoint (snapshot + file write) of the
      /// run's end state; 0 for uncheckpointed runs.
      double checkpointMs = 0.0;
    };
    // Min-of-K wall clock (digest is run-invariant; any run's will do).
    const auto timedRun = [&](const serve::ServeOptions& options) {
      Timed best;
      for (int i = 0; i < kTimingRuns; ++i) {
        serve::EpochServer server(rooted, objects, options);
        serve::VectorStream stream({events.begin(), events.end()});
        const serve::ServeReport report = server.serve(stream);
        reporter.addTiming(report.wallMs);
        if (i == 0 || report.wallMs < best.report.wallMs) {
          best.report = report;
        }
        if (i == 0) best.digest = serve::stateDigest(server, report);
        if (i == 0 && !options.checkpointDir.empty()) {
          util::Accumulator writeMs;
          for (int k = 0; k < kCheckpointTimings; ++k) {
            util::Timer write;
            serve::writeCheckpointFile(server.snapshotState(),
                                       options.checkpointDir);
            writeMs.add(write.millis());
          }
          best.checkpointMs = writeMs.median();
        }
      }
      return best;
    };

    const fs::path dir =
        fs::temp_directory_path() / ("hbn-e15-" + std::to_string(seed));
    fs::remove_all(dir);

    // --- Phase 1: checkpoint overhead -----------------------------------
    // A checkpoint costs under a millisecond (encoding the frequency
    // matrix's rows dominates), so its amortised overhead is
    // per-checkpoint cost over inter-checkpoint serve time: the cadence
    // here is the deployment-realistic one the 5% bound is stated for.
    // The recovery phase below uses a much tighter cadence — its job is
    // correctness, not cost.
    const Timed baseline = timedRun(makeOptions());
    serve::ServeOptions checkpointed = makeOptions();
    checkpointed.checkpointDir = (dir / "overhead").string();
    checkpointed.checkpointEvery = 128;
    const Timed withCkpt = timedRun(checkpointed);
    const double baselineMs = baseline.report.wallMs;
    const double overheadPct =
        baselineMs > 0.0
            ? withCkpt.checkpointMs *
                  static_cast<double>(withCkpt.report.checkpoints) /
                  baselineMs * 100.0
            : 0.0;
    const double wallOverheadPct =
        baselineMs > 0.0
            ? (withCkpt.report.wallMs - baselineMs) / baselineMs * 100.0
            : 0.0;
    const bool checkpointNeutral = withCkpt.digest == baseline.digest;

    // --- Phase 2: kill mid-run, restore, finish -------------------------
    const std::string recoveryDir = (dir / "recovery").string();
    bool killed = false;
    {
      serve::ServeOptions doomed = makeOptions();
      doomed.checkpointDir = recoveryDir;
      doomed.checkpointEvery = 8;
      doomed.faults = util::makeFaultInjector(
          "shard-throw@epoch" + std::to_string(killEpoch));
      serve::EpochServer server(rooted, objects, doomed);
      serve::VectorStream stream({events.begin(), events.end()});
      try {
        (void)server.serve(stream);
      } catch (const serve::Error& e) {
        killed = e.stage() == serve::Stage::Serve;
      }
    }
    double recoveryMs = 0.0;
    double restoredFromEpoch = 0.0;
    bool recoveryIdentical = false;
    serve::ServeReport recovered;
    if (killed) {
      util::Timer timer;
      const serve::CheckpointData data =
          serve::readCheckpointFile(serve::latestCheckpointPath(recoveryDir));
      serve::EpochServer server(rooted, objects, makeOptions());
      server.restoreFrom(data);
      serve::VectorStream stream({events.begin(), events.end()});
      serve::skipRequests(stream, data.servedTotal);
      recovered = server.serve(stream);
      recoveryMs = timer.millis();
      reporter.addTiming(recoveryMs);
      restoredFromEpoch = static_cast<double>(data.epochs);
      recoveryIdentical =
          serve::stateDigest(server, recovered) == baseline.digest;
    }

    // --- Phase 3: degraded-mode throughput ------------------------------
    serve::ServeOptions degraded = makeOptions();
    degraded.faults =
        util::makeFaultInjector("ingest-stall@epoch2:ms=2000");
    degraded.stallTimeoutMs = 20.0;
    Timed degradedRun;
    {
      serve::EpochServer server(rooted, objects, degraded);
      serve::VectorStream stream({events.begin(), events.end()});
      degradedRun.report = server.serve(stream);
      reporter.addTiming(degradedRun.report.wallMs);
      degradedRun.digest = serve::stateDigest(server, degradedRun.report);
    }
    const bool degradedIdentical = degradedRun.digest == baseline.digest;
    const bool watchdogFired = degradedRun.report.degradedEpochs >= 1;

    util::Table table({"phase", "wall ms", "Mreq/s", "notes"});
    table.addRow({"baseline", util::formatDouble(baselineMs, 1),
                  util::formatDouble(baseline.report.requestsPerSec / 1e6, 2),
                  "-"});
    table.addRow({"checkpointed",
                  util::formatDouble(withCkpt.report.wallMs, 1),
                  util::formatDouble(withCkpt.report.requestsPerSec / 1e6, 2),
                  "overhead " + util::formatDouble(overheadPct, 2) + "% (" +
                      std::to_string(withCkpt.report.checkpoints) + " x " +
                      util::formatDouble(withCkpt.checkpointMs, 2) +
                      " ms), wall " + util::formatDouble(wallOverheadPct, 2) +
                      "%"});
    table.addRow({"kill+restore", util::formatDouble(recoveryMs, 1), "-",
                  "restored from epoch " +
                      util::formatDouble(restoredFromEpoch, 0) +
                      (recoveryIdentical ? ", digest identical"
                                         : ", DIGEST DIVERGED")});
    table.addRow({"degraded",
                  util::formatDouble(degradedRun.report.wallMs, 1),
                  util::formatDouble(degradedRun.report.requestsPerSec / 1e6,
                                     2),
                  std::to_string(degradedRun.report.degradedEpochs) +
                      " degraded epochs"});
    table.print(ctx.os());

    ctx.os() << "\ncheckpoint overhead "
             << util::formatDouble(overheadPct, 2) << "% (bound "
             << util::formatDouble(kOverheadBoundPct, 1)
             << "%); recovery " << util::formatDouble(recoveryMs, 1)
             << " ms, digest "
             << (recoveryIdentical ? "identical" : "DIVERGED")
             << "; degraded-mode "
             << util::formatDouble(degradedRun.report.requestsPerSec / 1e6, 2)
             << " Mreq/s, digest "
             << (degradedIdentical ? "identical" : "DIVERGED") << "\n";

    // Each row is its run's report (serve::writeReportFields) plus the
    // phase's own measurements.
    reporter.beginRow();
    reporter.field("phase", "baseline");
    serve::writeReportFields(reporter, baseline.report);
    reporter.beginRow();
    reporter.field("phase", "checkpointed");
    reporter.field("checkpoint_overhead_pct", overheadPct);
    reporter.field("checkpoint_write_ms_p50", withCkpt.checkpointMs);
    reporter.field("wall_overhead_pct", wallOverheadPct);
    serve::writeReportFields(reporter, withCkpt.report);
    reporter.beginRow();
    reporter.field("phase", "kill-restore");
    reporter.field("kill_epoch", killEpoch);
    reporter.field("restored_from_epoch", restoredFromEpoch);
    reporter.field("recovery_ms", recoveryMs);
    reporter.field("digest_identical", recoveryIdentical);
    if (killed) serve::writeReportFields(reporter, recovered);
    reporter.beginRow();
    reporter.field("phase", "degraded");
    reporter.field("digest_identical", degradedIdentical);
    serve::writeReportFields(reporter, degradedRun.report);

    reporter.check(
        "kill + restore ends bit-identical to an uninterrupted run",
        killed && recoveryIdentical);
    reporter.check("checkpointing is digest-neutral", checkpointNeutral);
    reporter.check(
        "checkpoint overhead stays within 5% of baseline throughput",
        overheadPct <= kOverheadBoundPct, overheadPct);
    reporter.check(
        "ingest-stall watchdog degrades gracefully with an unchanged digest",
        watchdogFired && degradedIdentical);

    fs::remove_all(dir);
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerFaultRecovery(engine::ExperimentRegistry& registry) {
  registry.add(
      {"fault-recovery",
       "fault-tolerant serving: checkpoint overhead, kill-and-restore "
       "digest identity, degraded-mode throughput",
       "E15 / robustness extension (checkpoint/restore + fault injection)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<FaultRecoveryExperiment>(requests, epoch,
                                                         objects);
      },
      {"e15"});
}
}  // namespace detail

}  // namespace hbn::bench
