// Experiment E12 (§4, extension): the streaming request-serving engine
// at millions-of-requests scale. Serves generated online streams
// (skewed / bursty / diurnal) through the pipelined EpochServer and
// reports sustained throughput, epoch AND per-request latency
// percentiles, and the realised-congestion ratio against the analytic
// offline lower bound of the aggregated frequencies — the
// dynamic-to-static handoff the paper's online strategy implies.
//
// The headline perf claim is the pipelined-vs-barrier comparison on a
// calibrated drift-handoff stream: lazy per-object re-placement must
// keep the serving state bit-identical to the stop-the-world barrier
// engine while cutting tail latency — epoch p99 by >= 1.5x (measured
// ~3x) and request p99 by >= 1.25x (measured ~1.5x; the pipelined
// baseline is structurally ~2 epochs) — at near-parity throughput.
//
// Thread-scaling rows serve the skewed stream at 1, 2 and 4 worker
// threads and report throughput, speedup over one thread and the
// serve-worker request imbalance; the serving states must be identical.
// There is no timing floor on the speedup: under `ctest -j4` the cores
// are shared and a floor would flake.
#include <algorithm>
#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "experiments.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

constexpr double kRatioBound = 8.0;

// The drift-handoff latency scenario is a calibrated demonstration, not
// a scale test: the stream length, epoch size, object count, drift
// threshold, and seed are pinned so that re-placement fires a handful
// of times across ~25 epochs — rare enough that the barrier engine's
// handoff epochs are genuine tail events, frequent enough that the p99
// rank sees them. Serving runs on one worker thread so the tail is the
// handoff lump, not scheduler jitter.
constexpr std::uint64_t kLatencyRequests = 200'000;
constexpr std::size_t kLatencyEpoch = 4096;
constexpr int kLatencyObjects = 32768;
constexpr std::uint64_t kLatencySeed = 19;
constexpr double kLatencyDrift = 20.0;
// Latency-win floors. A pipelined request waits ~2 epochs (its arrival
// is stamped one epoch early by the ingest thread), so its p99 win is
// roughly spike / (2 * epoch duration) while the epoch-p99 win is
// spike / epoch duration — both are ratios of wall-clock timings. Full
// mode asserts the product claim (>= 1.5x on both); smoke mode runs
// the same comparison but only asserts direction (pipelining may not
// LOSE), because at CI scale on shared runners the spike-to-epoch
// ratio carries too much scheduler noise to gate a 1.5x magnitude on.
constexpr double kEpochWinFloorFull = 1.5;
// The request-p99 floor is lower than the epoch-p99 floor because the
// pipelined baseline is structurally ~2 epochs: with spike/epoch ~= 3
// the request win sits near 1.5 exactly, and on one hardware thread it
// cannot be pushed robustly past that bound (typical measurements are
// 1.5-1.9; the floor leaves noise margin below them).
constexpr double kRequestWinFloorFull = 1.25;
constexpr double kLatencyWinFloorSmoke = 1.05;
// Throughput parity floors for pipelined vs barrier. On a single
// hardware thread the ingest worker is pure scheduling overhead (no
// core to overlap onto), which costs a few percent of wall clock; with
// any spare core the pipelined engine is at or above parity. 15% (20%
// at smoke scale) accommodates the worst (serial) case without masking
// a real regression.
constexpr double kThroughputParityFloorFull = 0.85;
constexpr double kThroughputParityFloorSmoke = 0.80;
// The parity ratio is the median over this many interleaved
// barrier/pipelined pairs: one pair's ratio moves with whatever else the
// host runs during either run, the median of interleaved pairs does not.
constexpr int kParityPairsFull = 5;
constexpr int kParityPairsSmoke = 3;
// Worker thread counts of the thread-scaling rows.
constexpr int kScalingThreads[] = {1, 2, 4};

class ServingThroughputExperiment final : public engine::Experiment {
 public:
  ServingThroughputExperiment(std::int64_t requests, std::int64_t epoch,
                              std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "serving-throughput";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(12);
    // The point of this experiment is scale: even the smoke suite pushes
    // more than a million requests end-to-end through the engine.
    const std::uint64_t perProfile =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? 400'000ULL : 2'000'000ULL);
    const std::size_t epochSize =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : (1u << 16);
    const int objects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_) : 1024;

    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    ctx.os() << "E12 — streaming request-serving engine: pipelined "
                "epoch-batched online traffic vs the offline lower "
                "bound\nseed="
             << seed << ", " << perProfile << " requests/profile, epoch="
             << epochSize << ", objects=" << objects
             << ", threads=" << ctx.threads << "\n\n";

    // Every row this experiment emits — profile sweeps and handoff
    // comparisons alike — carries the same latency schema, so the CI
    // trajectory consumers can require the fields uniformly.
    const auto emitRow = [&reporter](
                             const char* stream, const char* variant,
                             const serve::ServeReport& report,
                             std::size_t rowEpochSize, int rowObjects,
                             int rowThreads) {
      reporter.beginRow();
      reporter.field("stream", stream);
      if (variant != nullptr) reporter.field("variant", variant);
      reporter.field("pipeline", report.pipeline);
      reporter.field("requests",
                     static_cast<std::int64_t>(report.totalRequests));
      reporter.field("epochs", static_cast<std::int64_t>(report.epochs));
      reporter.field("epoch_size", static_cast<std::int64_t>(rowEpochSize));
      reporter.field("objects", rowObjects);
      reporter.field("threads", rowThreads);
      reporter.field("wall_ms", report.wallMs);
      reporter.field("requests_per_sec", report.requestsPerSec);
      reporter.field("epoch_ms_p50", report.epochMsP50);
      reporter.field("epoch_ms_p99", report.epochMsP99);
      reporter.field("epoch_ms_p999", report.epochMsP999);
      reporter.field("latency_ms_p50", report.latencyMsP50);
      reporter.field("latency_ms_p99", report.latencyMsP99);
      reporter.field("latency_ms_p999", report.latencyMsP999);
      reporter.field("latency_samples",
                     static_cast<std::int64_t>(report.latencySamples));
      reporter.field("congestion", report.congestion);
      reporter.field("lower_bound", report.lowerBound);
      reporter.field("ratio", report.ratio);
      reporter.field("replacements",
                     static_cast<std::int64_t>(report.replacements));
      reporter.field("replications",
                     static_cast<std::int64_t>(report.replications));
      reporter.field("invalidations",
                     static_cast<std::int64_t>(report.invalidations));
      reporter.field("worker_imbalance", report.workerImbalance);
    };
    util::Table table({"stream", "requests", "epochs", "Mreq/s",
                       "epoch p99 ms", "req p99 ms", "ratio",
                       "re-placements"});
    std::uint64_t totalServed = 0;
    double worstRatio = 0.0;
    int profileIndex = 0;
    for (const char* profile : {"skewed", "bursty", "diurnal"}) {
      workload::StreamParams params;
      params.numObjects = objects;
      const auto stream = serve::makeGeneratedStream(
          profile, tree, params, seed + static_cast<std::uint64_t>(
                                            ++profileIndex),
          perProfile);
      serve::ServeOptions options;
      options.epochSize = epochSize;
      options.threads = ctx.threads;
      serve::EpochServer server(rooted, objects, options);
      util::Timer timer;
      const serve::ServeReport report = server.serve(*stream);
      reporter.addTiming(timer.millis());
      totalServed += report.totalRequests;
      worstRatio = std::max(worstRatio, report.ratio);

      table.addRow({profile, std::to_string(report.totalRequests),
                    std::to_string(report.epochs),
                    util::formatDouble(report.requestsPerSec / 1e6, 2),
                    util::formatDouble(report.epochMsP99, 2),
                    util::formatDouble(report.latencyMsP99, 2),
                    util::formatDouble(report.ratio, 2),
                    std::to_string(report.replacements)});
      emitRow(profile, nullptr, report, epochSize, objects, ctx.threads);
    }
    table.print(ctx.os());

    // Pipelined vs barrier on the drift-handoff stream: a diurnal hot
    // set drifts until the drift trigger fires a full nibble
    // re-placement. The barrier engine pays the whole handoff inside
    // the epoch that fired it; the pipelined engine queues the pass and
    // applies it lazily per touched object, so the lump
    // never lands in one epoch. Counters and loads must nevertheless be
    // bit-identical — lazy application is a scheduling change, not a
    // semantic one.
    const auto latencyRun = [&](bool pipeline, std::string* digest) {
      workload::StreamParams params;
      params.numObjects = kLatencyObjects;
      const auto stream = serve::makeGeneratedStream(
          "diurnal", tree, params, kLatencySeed, kLatencyRequests);
      serve::ServeOptions options;
      options.epochSize = kLatencyEpoch;
      options.threads = 1;
      options.policy = "tree-counters";
      options.replaceDrift = kLatencyDrift;
      options.pipeline = pipeline;
      serve::EpochServer server(rooted, kLatencyObjects, options);
      util::Timer timer;
      const serve::ServeReport report = server.serve(*stream);
      reporter.addTiming(timer.millis());
      totalServed += report.totalRequests;
      *digest = serve::stateDigest(server, report);
      return report;
    };
    // K interleaved barrier/pipelined pairs: the first pair's rows and
    // latency wins are reported, the throughput parity is the median
    // of the pairs' ratios, and every pair must be bit-identical.
    const int parityPairs = ctx.smoke ? kParityPairsSmoke : kParityPairsFull;
    std::string barrierDigest;
    std::string pipelinedDigest;
    const serve::ServeReport barrier = latencyRun(false, &barrierDigest);
    const serve::ServeReport pipelined = latencyRun(true, &pipelinedDigest);
    emitRow("diurnal-handoff", "barrier", barrier, kLatencyEpoch,
            kLatencyObjects, 1);
    emitRow("diurnal-handoff", "pipelined", pipelined, kLatencyEpoch,
            kLatencyObjects, 1);
    const auto parityOf = [](const serve::ServeReport& barrierRun,
                             const serve::ServeReport& pipelinedRun) {
      return barrierRun.requestsPerSec > 0.0
                 ? pipelinedRun.requestsPerSec / barrierRun.requestsPerSec
                 : 0.0;
    };
    bool bitIdentical = barrierDigest == pipelinedDigest;
    util::Accumulator parityRatios;
    parityRatios.add(parityOf(barrier, pipelined));
    for (int pair = 1; pair < parityPairs; ++pair) {
      std::string barrierPairDigest;
      std::string pipelinedPairDigest;
      const serve::ServeReport barrierPair =
          latencyRun(false, &barrierPairDigest);
      const serve::ServeReport pipelinedPair =
          latencyRun(true, &pipelinedPairDigest);
      bitIdentical = bitIdentical && barrierPairDigest == barrierDigest &&
                     pipelinedPairDigest == barrierDigest;
      parityRatios.add(parityOf(barrierPair, pipelinedPair));
    }
    const double throughputParity = parityRatios.median();
    const double epochP99Win =
        pipelined.epochMsP99 > 0.0 ? barrier.epochMsP99 / pipelined.epochMsP99
                                   : 0.0;
    const double requestP99Win =
        pipelined.latencyMsP99 > 0.0
            ? barrier.latencyMsP99 / pipelined.latencyMsP99
            : 0.0;
    ctx.os() << "\ndrift-handoff stream (" << barrier.replacements
             << " re-placements over " << barrier.epochs
             << " epochs):\n  epoch p99   "
             << util::formatDouble(barrier.epochMsP99, 2) << " ms barrier vs "
             << util::formatDouble(pipelined.epochMsP99, 2)
             << " ms pipelined (" << util::formatDouble(epochP99Win, 2)
             << "x)\n  request p99 "
             << util::formatDouble(barrier.latencyMsP99, 2)
             << " ms barrier vs "
             << util::formatDouble(pipelined.latencyMsP99, 2)
             << " ms pipelined (" << util::formatDouble(requestP99Win, 2)
             << "x)\n  throughput  "
             << util::formatDouble(barrier.requestsPerSec / 1e6, 2)
             << " Mreq/s barrier vs "
             << util::formatDouble(pipelined.requestsPerSec / 1e6, 2)
             << " Mreq/s pipelined (median ratio over " << parityPairs
             << " pairs " << util::formatDouble(throughputParity, 2)
             << ")\n  serving state "
             << (bitIdentical ? "bit-identical" : "DIVERGED") << "\n";

    // The dynamic-to-static handoff, in the regime where the online
    // strategy adapts slowly (read-mostly traffic, high replication
    // threshold): drift-triggered nibble re-placement must fire and must
    // not serve the same stream at higher congestion than leaving the
    // stale copy configuration in place.
    // Floor the demonstration size: below ~10^5 requests a single
    // migration pass is not amortised and the comparison is noise.
    const std::uint64_t handoffRequests =
        std::max<std::uint64_t>(perProfile / 2, 120'000);
    const auto handoffRun = [&](double drift) {
      workload::StreamParams params;
      params.numObjects = objects;
      params.readFraction = 0.995;
      const auto stream = serve::makeGeneratedStream(
          "skewed", tree, params, seed + 7, handoffRequests);
      serve::ServeOptions options;
      options.epochSize = epochSize;
      options.threads = ctx.threads;
      options.policy = "tree-counters:threshold=64";
      options.replaceDrift = drift;
      serve::EpochServer server(rooted, objects, options);
      util::Timer timer;
      const serve::ServeReport report = server.serve(*stream);
      reporter.addTiming(timer.millis());
      totalServed += report.totalRequests;
      return report;
    };
    const serve::ServeReport driftOff = handoffRun(0.0);
    const serve::ServeReport driftOn = handoffRun(2.0);
    emitRow("skewed-slow-adapt", "drift-off", driftOff, epochSize, objects,
            ctx.threads);
    emitRow("skewed-slow-adapt", "drift-on", driftOn, epochSize, objects,
            ctx.threads);
    const bool handoffHelps = driftOn.replacements > 0 &&
                              driftOn.congestion <= driftOff.congestion;
    ctx.os() << "\nslow-adaptation handoff: congestion "
             << util::formatDouble(driftOff.congestion, 1)
             << " without re-placement vs "
             << util::formatDouble(driftOn.congestion, 1) << " with ("
             << driftOn.replacements << " re-placements)\n";

    // Thread scaling and thread-count independence: the skewed stream
    // at 1, 2 and 4 worker threads. Request-weighted cuts balance the
    // Zipf epochs (worker_imbalance); the serving states must be
    // identical — with the pipeline on, as it is by default.
    util::Table scaling({"threads", "Mreq/s", "speedup", "imbalance"});
    double singleThreadRate = 0.0;
    std::string singleThreadDigest;
    bool deterministic = true;
    for (const int threads : kScalingThreads) {
      workload::StreamParams params;
      params.numObjects = objects;
      const auto stream = serve::makeGeneratedStream("skewed", tree, params,
                                                     seed + 99, perProfile);
      serve::ServeOptions options;
      options.epochSize = epochSize;
      options.threads = threads;
      serve::EpochServer server(rooted, objects, options);
      util::Timer timer;
      const serve::ServeReport report = server.serve(*stream);
      reporter.addTiming(timer.millis());
      totalServed += report.totalRequests;
      const std::string state = serve::stateDigest(server, report);
      if (threads == 1) {
        singleThreadRate = report.requestsPerSec;
        singleThreadDigest = state;
      }
      deterministic = deterministic && state == singleThreadDigest;
      const double speedup = singleThreadRate > 0.0
                                 ? report.requestsPerSec / singleThreadRate
                                 : 0.0;
      emitRow("skewed", "thread-scaling", report, epochSize, objects, threads);
      reporter.field("speedup", speedup);
      scaling.addRow({std::to_string(threads),
                      util::formatDouble(report.requestsPerSec / 1e6, 2),
                      util::formatDouble(speedup, 2),
                      util::formatDouble(report.workerImbalance, 2)});
    }
    ctx.os() << "\nthread scaling, skewed stream:\n";
    scaling.print(ctx.os());

    const bool servedAll =
        totalServed == (3 + std::size(kScalingThreads)) * perProfile +
                           2 * handoffRequests +
                           2 * static_cast<std::uint64_t>(parityPairs) *
                               kLatencyRequests &&
        (requestsOverride_ > 0 || totalServed >= 1'000'000ULL);
    const bool ratioHeld = worstRatio <= kRatioBound;
    ctx.os() << "\nserved " << totalServed
             << " requests total; worst congestion ratio "
             << util::formatDouble(worstRatio, 2) << " (bound "
             << util::formatDouble(kRatioBound, 1) << "); 1/2/4-thread "
             << (deterministic ? "states identical" : "STATES DIVERGED")
             << "\n";

    reporter.check(
        "stream served end-to-end (>= 1M at suite scale)",
        servedAll, static_cast<double>(totalServed));
    reporter.check(
        "realised congestion within bound of the offline lower bound",
        ratioHeld, worstRatio);
    reporter.check(
        "adaptive re-placement fires under slow adaptation and does not "
        "increase congestion",
        handoffHelps, driftOn.congestion);
    reporter.check(
        "epoch sharding is thread-count independent (skewed stream, 1/2/4 "
        "threads)",
        deterministic);
    reporter.check(
        "pipelined serving state is bit-identical to the barrier engine on "
        "the drift-handoff stream",
        bitIdentical);
    const double epochWinFloor =
        ctx.smoke ? kLatencyWinFloorSmoke : kEpochWinFloorFull;
    const double requestWinFloor =
        ctx.smoke ? kLatencyWinFloorSmoke : kRequestWinFloorFull;
    const double parityFloor =
        ctx.smoke ? kThroughputParityFloorSmoke : kThroughputParityFloorFull;
    reporter.check(ctx.smoke
                       ? "pipelining does not worsen epoch p99 latency "
                         "on the drift-handoff stream (smoke floor)"
                       : "pipelining improves epoch p99 latency >= 1.5x "
                         "on the drift-handoff stream",
                   epochP99Win >= epochWinFloor, epochP99Win);
    reporter.check(ctx.smoke
                       ? "pipelining does not worsen request p99 latency "
                         "on the drift-handoff stream (smoke floor)"
                       : "pipelining improves request p99 latency >= 1.25x "
                         "on the drift-handoff stream",
                   requestP99Win >= requestWinFloor, requestP99Win);
    reporter.check(ctx.smoke
                       ? "pipelined throughput within 20% of the barrier "
                         "engine (median of interleaved pairs, smoke "
                         "floor)"
                       : "pipelined throughput within 15% of the barrier "
                         "engine (median of interleaved pairs)",
                   throughputParity >= parityFloor, throughputParity);
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerServingThroughput(engine::ExperimentRegistry& registry) {
  registry.add(
      {"serving-throughput",
       "pipelined streaming request-serving engine: epoch-batched online "
       "traffic at millions-of-requests scale, with tail-latency "
       "comparison against the barrier engine",
       "E12 / section 4 (dynamic-to-static handoff)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<ServingThroughputExperiment>(requests, epoch,
                                                             objects);
      },
      {"e12"});
}
}  // namespace detail

}  // namespace hbn::bench
