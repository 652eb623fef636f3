// Experiment E16: multi-process sharded serving. The object space is
// partitioned over N shard workers behind the coordinator/worker wire
// protocol (docs/sharding.md); each worker runs the single-process
// serving stack over its shard and the coordinator merges the
// convergecast stats.
//
// Three claims, per the sharding design:
//   identity     for EVERY registered policy, the merged loads, final
//                congestion/lower bound/ratio, and the
//                replication/invalidation/re-placement counters of a
//                sharded run are bit-identical to the single-process
//                EpochServer — for 1, 2 and 4 workers (the partition
//                only decides who serves, never what is served).
//   transports   the socket transport (exec'd worker processes over
//                Unix sockets, the launcher hbn_serve ships) produces
//                the same bits as in-process loopback. The host
//                binary's main must call shard::maybeRunWorkerMain.
//   scaling      on a skewed stream with the adaptive policy, the
//                critical-path throughput (Σ over epochs of the
//                slowest shard's CPU time — what N truly parallel
//                workers would take; see docs/sharding.md) scales to
//                >= 1.5x at 4 workers (the median 4-vs-1-worker
//                ratio over interleaved pairs). Wall clock is reported
//                alongside but not gated: on fewer cores than workers
//                the shards time-slice and wall clock measures the
//                machine, not the protocol.
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiments.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

/// Identity-phase stream scale. Small on purpose: the phase runs
/// (1 single-process + 3 sharded) runs per registered policy.
constexpr std::uint64_t kIdentityRequestsFull = 120'000;
constexpr std::uint64_t kIdentityRequestsSmoke = 48'000;
constexpr std::size_t kIdentityEpoch = 8192;
constexpr int kIdentityObjects = 256;

/// Scaling-phase scale: the adaptive policy on a skewed stream over a
/// small hot set, where per-object serving dominates the per-worker
/// fixed epoch work (decode + full-matrix aggregation + lower-bound
/// refresh) and sharding has something to win.
constexpr std::uint64_t kScalingRequestsFull = 640'000;
constexpr std::uint64_t kScalingRequestsSmoke = 160'000;
constexpr std::size_t kScalingEpoch = 32768;
constexpr int kScalingObjects = 256;
constexpr const char* kScalingPolicy = "adaptive";

/// Critical-path speedup floors at 4 workers. Full mode gates the
/// headline claim; smoke scale keeps a direction-only margin because
/// five-epoch runs leave little amortisation.
constexpr double kSpeedupFloorFull = 1.5;
constexpr double kSpeedupFloorSmoke = 1.05;
/// The gated speedup is the median over this many interleaved
/// 1-worker/4-worker pairs: one pair's ratio moves with whatever else
/// the host runs during either run, the median of interleaved pairs
/// does not.
constexpr int kScalingPairs = 5;

std::vector<workload::RequestEvent> materialize(const net::Tree& tree,
                                                int objects,
                                                std::uint64_t seed,
                                                std::uint64_t total) {
  workload::StreamParams params;
  params.numObjects = objects;
  const auto stream =
      serve::makeGeneratedStream("skewed", tree, params, seed, total);
  std::vector<workload::RequestEvent> events(total);
  std::size_t have = 0;
  while (have < total) {
    const std::size_t got = stream->fill(
        std::span<workload::RequestEvent>(events.data() + have,
                                          total - have));
    if (got == 0) break;
    have += got;
  }
  events.resize(have);
  return events;
}

class ShardedServingExperiment final : public engine::Experiment {
 public:
  ShardedServingExperiment(std::int64_t requests, std::int64_t epoch,
                           std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "sharded-serving";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(12);
    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());

    const std::uint64_t identityRequests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? kIdentityRequestsSmoke : kIdentityRequestsFull);
    const std::size_t identityEpoch =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : kIdentityEpoch;
    const int identityObjects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_)
                             : kIdentityObjects;
    const std::uint64_t scalingRequests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? kScalingRequestsSmoke : kScalingRequestsFull);

    ctx.os() << "E16 — multi-process sharded serving: coordinator/worker "
                "protocol vs the single-process engine\nseed="
             << seed << ", identity: " << identityRequests
             << " requests x epoch " << identityEpoch << " x "
             << identityObjects << " objects; scaling: " << scalingRequests
             << " requests (policy=" << kScalingPolicy << ")\n\n";

    const auto singleProcess =
        [&](const std::vector<workload::RequestEvent>& events,
            const std::string& policy, int objects, std::size_t epochSize,
            std::string* digest) {
          serve::VectorStream stream(events);
          serve::ServeOptions options;
          options.epochSize = epochSize;
          options.threads = 1;
          options.policy = policy;
          serve::EpochServer server(rooted, objects, options);
          const serve::ServeReport report = server.serve(stream);
          *digest = serve::stateDigest(report, server.loads());
          return report;
        };

    const auto sharded =
        [&](const std::vector<workload::RequestEvent>& events,
            const std::string& policy, int objects, std::size_t epochSize,
            int workers, bool socket, std::string* digest) {
          serve::VectorStream stream(events);
          shard::ShardOptions options;
          options.serve.epochSize = epochSize;
          options.serve.threads = 1;
          options.serve.policy = policy;
          options.partitionSeed = seed;
          std::unique_ptr<shard::ShardCluster> cluster =
              socket ? shard::makeExecCluster(workers)
                     : shard::makeLoopbackCluster(workers);
          shard::ShardCoordinator coordinator(
              tree, objects, options, cluster->links(),
              socket ? "socket" : "loopback");
          const shard::ShardedReport report = coordinator.serve(stream);
          cluster->join();
          *digest = serve::stateDigest(report, coordinator.loads());
          return report;
        };

    // --- Phase 1: digest identity for every registered policy. -------
    const std::vector<workload::RequestEvent> identityEvents =
        materialize(tree, identityObjects, seed + 1, identityRequests);
    util::Table identityTable(
        {"policy", "congestion", "ratio", "re-placed", "1w", "2w", "4w"});
    bool identityHeld = true;
    for (const std::string& policy :
         dynamic::OnlinePolicyRegistry::global().names()) {
      std::string reference;
      const serve::ServeReport report = singleProcess(
          identityEvents, policy, identityObjects, identityEpoch,
          &reference);
      std::vector<std::string> verdicts;
      for (const int workers : {1, 2, 4}) {
        std::string shardedDigest;
        util::Timer timer;
        const shard::ShardedReport shardedReport =
            sharded(identityEvents, policy, identityObjects, identityEpoch,
                    workers, /*socket=*/false, &shardedDigest);
        reporter.addTiming(timer.millis());
        const bool match = shardedDigest == reference;
        identityHeld = identityHeld && match;
        verdicts.push_back(match ? "ok" : "DIVERGED");

        reporter.beginRow();
        reporter.field("phase", "identity");
        reporter.field("policy", policy);
        reporter.field("transport", "loopback");
        reporter.field("workers", workers);
        reporter.field("requests", static_cast<std::int64_t>(
                                       shardedReport.totalRequests));
        reporter.field("congestion", shardedReport.congestion);
        reporter.field("lower_bound", shardedReport.lowerBound);
        reporter.field("ratio", shardedReport.ratio);
        reporter.field("replacements", static_cast<std::int64_t>(
                                           shardedReport.replacements));
        reporter.field("cross_shard_bytes",
                       static_cast<std::int64_t>(
                           shardedReport.crossShardBytes));
        reporter.field("bytes_per_request", shardedReport.bytesPerRequest);
        reporter.field("digest_matches_single_process", match);
      }
      identityTable.addRow({policy,
                            util::formatDouble(report.congestion, 1),
                            util::formatDouble(report.ratio, 2),
                            std::to_string(report.replacements),
                            verdicts[0], verdicts[1], verdicts[2]});
    }
    ctx.os() << "digest identity vs single-process engine (merged edge "
                "loads + counters, all registered policies):\n";
    identityTable.print(ctx.os());

    // --- Phase 2: socket transport produces the same bits. -----------
    std::string loopbackDigest;
    std::string socketDigest;
    {
      util::Timer timer;
      (void)sharded(identityEvents, "tree-counters", identityObjects,
                    identityEpoch, 2, /*socket=*/false, &loopbackDigest);
      (void)sharded(identityEvents, "tree-counters", identityObjects,
                    identityEpoch, 2, /*socket=*/true, &socketDigest);
      reporter.addTiming(timer.millis());
    }
    const bool socketHeld = socketDigest == loopbackDigest;
    ctx.os() << "\nsocket transport (2 exec'd worker processes): "
             << (socketHeld ? "bit-identical to loopback" : "DIVERGED")
             << "\n";

    // --- Phase 3: critical-path scaling on the skewed stream. --------
    const std::vector<workload::RequestEvent> scalingEvents =
        materialize(tree, kScalingObjects, seed + 2, scalingRequests);
    util::Table scalingTable({"workers", "wall Mreq/s", "critical Mreq/s",
                              "speedup", "bytes/request", "epoch p99 ms"});
    double baselineCritical = 0.0;
    util::Accumulator speedups;  // 4-worker / 1-worker, per pair
    std::string scalingReference;
    bool scalingIdentity = true;
    for (const int workers : {1, 2, 4}) {
      std::string digest;
      util::Timer timer;
      const shard::ShardedReport report =
          sharded(scalingEvents, kScalingPolicy, kScalingObjects,
                  kScalingEpoch, workers, /*socket=*/false, &digest);
      reporter.addTiming(timer.millis());
      if (workers == 1) {
        baselineCritical = report.requestsPerSecCritical;
        scalingReference = digest;
      } else {
        scalingIdentity = scalingIdentity && digest == scalingReference;
      }
      const double speedup =
          baselineCritical > 0.0
              ? report.requestsPerSecCritical / baselineCritical
              : 0.0;
      if (workers == 4) speedups.add(speedup);
      scalingTable.addRow(
          {std::to_string(workers),
           util::formatDouble(report.requestsPerSec / 1e6, 2),
           util::formatDouble(report.requestsPerSecCritical / 1e6, 2),
           util::formatDouble(speedup, 2),
           util::formatDouble(report.bytesPerRequest, 1),
           util::formatDouble(report.epochMsP99, 2)});

      reporter.beginRow();
      reporter.field("phase", "scaling");
      reporter.field("policy", kScalingPolicy);
      reporter.field("transport", "loopback");
      reporter.field("workers", workers);
      reporter.field("requests",
                     static_cast<std::int64_t>(report.totalRequests));
      reporter.field("epochs", static_cast<std::int64_t>(report.epochs));
      reporter.field("wall_ms", report.wallMs);
      reporter.field("requests_per_sec", report.requestsPerSec);
      reporter.field("critical_path_ms", report.criticalPathMs);
      reporter.field("requests_per_sec_critical",
                     report.requestsPerSecCritical);
      reporter.field("speedup_critical", speedup);
      reporter.field("epoch_ms_p50", report.epochMsP50);
      reporter.field("epoch_ms_p99", report.epochMsP99);
      reporter.field("congestion", report.congestion);
      reporter.field("lower_bound", report.lowerBound);
      reporter.field("ratio", report.ratio);
      reporter.field("replacements",
                     static_cast<std::int64_t>(report.replacements));
      reporter.field("cross_shard_bytes",
                     static_cast<std::int64_t>(report.crossShardBytes));
      reporter.field("bytes_per_request", report.bytesPerRequest);
    }
    ctx.os() << "\ncritical-path scaling, " << kScalingPolicy
             << " policy on the skewed stream:\n";
    scalingTable.print(ctx.os());
    // The rows above are the first 1/4-worker pair; the rest of the
    // pairs only feed the median (and the digest identity).
    for (int pair = 1; pair < kScalingPairs; ++pair) {
      std::string oneDigest;
      std::string fourDigest;
      util::Timer timer;
      const shard::ShardedReport one =
          sharded(scalingEvents, kScalingPolicy, kScalingObjects,
                  kScalingEpoch, 1, /*socket=*/false, &oneDigest);
      const shard::ShardedReport four =
          sharded(scalingEvents, kScalingPolicy, kScalingObjects,
                  kScalingEpoch, 4, /*socket=*/false, &fourDigest);
      reporter.addTiming(timer.millis());
      scalingIdentity = scalingIdentity && oneDigest == scalingReference &&
                        fourDigest == scalingReference;
      speedups.add(one.requestsPerSecCritical > 0.0
                       ? four.requestsPerSecCritical /
                             one.requestsPerSecCritical
                       : 0.0);
    }
    const double speedupAt4 = speedups.median();

    const double speedupFloor =
        ctx.smoke ? kSpeedupFloorSmoke : kSpeedupFloorFull;
    const bool scalingHeld = speedupAt4 >= speedupFloor;
    ctx.os() << "\ncritical-path speedup at 4 workers: "
             << util::formatDouble(speedupAt4, 2) << "x (median of "
             << kScalingPairs << " interleaved pairs; floor "
             << util::formatDouble(speedupFloor, 2) << "x, "
             << (ctx.smoke ? "smoke" : "full") << " mode)\n";

    reporter.check(
        "sharded serving is bit-identical to the single-process engine for "
        "every registered policy at 1, 2 and 4 workers",
        identityHeld);
    reporter.check(
        "socket transport produces the same bits as loopback",
        socketHeld);
    reporter.check(
        "aggregate load digests are worker-count independent on the scaling "
        "stream",
        scalingIdentity);
    reporter.check(ctx.smoke
                       ? "critical-path throughput does not lose at 4 "
                         "workers (smoke floor, median of interleaved "
                         "pairs)"
                       : "critical-path throughput scales >= 1.5x at 4 "
                         "workers on the skewed stream (median of "
                         "interleaved pairs)",
                   scalingHeld, speedupAt4);
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerShardedServing(engine::ExperimentRegistry& registry) {
  registry.add(
      {"sharded-serving",
       "multi-process sharded serving: per-policy digest identity with "
       "the single-process engine, socket-vs-loopback transport "
       "equivalence, and critical-path throughput scaling vs worker "
       "count",
       "E16 / docs/sharding.md (coordinator/worker protocol)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<ShardedServingExperiment>(requests, epoch,
                                                          objects);
      },
      {"e16"});
}
}  // namespace detail

}  // namespace hbn::bench
