// Experiment E14 (§4 + §1.3, extension): the unified online-policy
// engine. Sweeps every registered serving policy — the FOCS'97
// tree-counters scheme, the frozen static:placement=extended-nibble
// composition, full-replication, and owner-only — over the generated
// skewed / bursty / diurnal streams, a write-heavy churn variant, and
// the adversarial ping-pong sequence, all through the same EpochServer.
//
// Checks (the cross-policy claims of the redesign):
//   * tree-counters beats owner-only on read-heavy skew (replication
//     towards readers pays off),
//   * tree-counters beats full-replication on write-heavy churn
//     (invalidate-on-write caps broadcast traffic),
//   * static + the drift handoff stays within the e12 congestion-ratio
//     bound on the generated streams (periodic offline re-optimisation
//     is a serviceable policy),
//   * every policy's epoch sharding is thread-count independent.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/dynamic/harness.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/rng.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

constexpr double kRatioBound = 8.0;  // e12's realised-congestion bound
/// adaptive must stay within this factor of the best fixed policy on
/// every fixed-regime stream (the price of scoring before switching).
constexpr double kAdaptiveSlack = 1.10;

/// One spec per registered policy, so a newly registered policy joins
/// the sweep (and the committed comparison) automatically. `static` is
/// pinned to the extended-nibble composition the checks and the
/// acceptance surface name explicitly; every other policy runs with
/// its defaults.
std::vector<std::string> policySpecs() {
  std::vector<std::string> specs;
  for (const std::string& name :
       dynamic::OnlinePolicyRegistry::global().names()) {
    specs.push_back(name == "static" ? "static:placement=extended-nibble"
                                     : name);
  }
  return specs;
}

class PolicyComparisonExperiment final : public engine::Experiment {
 public:
  PolicyComparisonExperiment(std::int64_t requests, std::int64_t epoch,
                             std::int64_t objects)
      : requestsOverride_(requests),
        epochOverride_(epoch),
        objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "policy-comparison";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(14);
    const std::uint64_t perStream =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? 300'000ULL : 600'000ULL);
    const std::size_t epochSize =
        epochOverride_ > 0 ? static_cast<std::size_t>(epochOverride_)
                           : (1u << 12);
    const int objects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_) : 512;

    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    ctx.os() << "E14 — online-policy comparison: every registered policy "
                "over every stream family\nseed="
             << seed << ", " << perStream << " requests/stream, epoch="
             << epochSize << ", objects=" << objects
             << ", threads=" << ctx.threads << "\n\n";

    // Stream configurations: the three generated e12 profiles, a
    // write-heavy churn variant, and the adversarial ping-pong
    // sequence (materialised once, served identically by each policy).
    struct StreamConfig {
      std::string label;
      std::string generator;  ///< empty = ping-pong vector
      double readFraction = 0.9;
      std::uint64_t seedOffset = 0;
    };
    const std::vector<StreamConfig> streams = {
        {"skewed", "skewed", 0.95, 1},
        {"bursty", "bursty", 0.9, 2},
        {"diurnal", "diurnal", 0.9, 3},
        {"skewed-churn", "skewed", 0.25, 4},
        {"ping-pong", "", 0.0, 5},
        {"phase-shift", "phase-shift", 0.9, 6},
    };
    util::Rng pingRng(seed + 5);
    const int pingRounds = std::max<int>(
        1, static_cast<int>(perStream /
                            (static_cast<std::uint64_t>(objects) * 6)));
    const std::vector<dynamic::Request> pingPong =
        dynamic::makePingPongSequence(tree, objects, pingRounds, 5, pingRng);

    const auto makeStream =
        [&](const StreamConfig& config) -> std::unique_ptr<serve::RequestStream> {
      if (config.generator.empty()) {
        return std::make_unique<serve::VectorStream>(pingPong);
      }
      workload::StreamParams params;
      params.numObjects = objects;
      params.readFraction = config.readFraction;
      // Regime boundaries land on epoch boundaries (9 epochs per
      // schedule slot, so one [skew, skew, churn, burst] cycle spans
      // 36 epochs), and adaptive sees whole epochs of each regime
      // before re-scoring.
      if (config.generator == "phase-shift") {
        params.phaseLength = static_cast<std::uint64_t>(epochSize) * 9;
      }
      return serve::makeGeneratedStream(config.generator, tree, params,
                                        seed + config.seedOffset, perStream);
    };

    util::Table table({"stream", "policy", "requests", "Mreq/s",
                       "congestion", "ratio", "re-placements"});
    // congestion[stream label][policy spec], ratio likewise — the
    // checks below read specific cells.
    std::map<std::string, std::map<std::string, double>> congestion;
    std::map<std::string, std::map<std::string, double>> ratio;
    std::map<std::string, std::map<std::string, std::uint64_t>> replaced;

    for (const StreamConfig& config : streams) {
      for (const std::string& policy : policySpecs()) {
        const auto stream = makeStream(config);
        serve::ServeOptions options;
        options.epochSize = epochSize;
        options.threads = ctx.threads;
        options.policy = policy;
        serve::EpochServer server(rooted, objects, options);
        util::Timer timer;
        const serve::ServeReport report = server.serve(*stream);
        reporter.addTiming(timer.millis());
        congestion[config.label][policy] = report.congestion;
        ratio[config.label][policy] = report.ratio;
        replaced[config.label][policy] = report.replacements;

        table.addRow({config.label, policy,
                      std::to_string(report.totalRequests),
                      util::formatDouble(report.requestsPerSec / 1e6, 2),
                      util::formatDouble(report.congestion, 1),
                      util::formatDouble(report.ratio, 2),
                      std::to_string(report.replacements)});
        reporter.beginRow();
        reporter.field("stream", config.label);
        reporter.field("objects", objects);
        reporter.field("threads", ctx.threads);
        serve::writeReportFields(reporter, report);
      }
    }
    table.print(ctx.os());

    // Thread-count independence, per policy: the per-worker policy
    // state must keep the engine's 1-vs-N bit-identity guarantee.
    const auto digest = [&](const std::string& policy, int threads) {
      workload::StreamParams params;
      params.numObjects = objects;
      const auto stream = serve::makeGeneratedStream(
          "skewed", tree, params, seed + 99, /*total=*/50'000);
      serve::ServeOptions options;
      options.epochSize = 1 << 12;
      options.threads = threads;
      options.replaceDrift = 1.5;  // exercise the handoff path too
      options.policy = policy;
      serve::EpochServer server(rooted, objects, options);
      const serve::ServeReport report = server.serve(*stream);
      return serve::stateDigest(server, report);
    };
    bool deterministic = true;
    for (const std::string& policy : policySpecs()) {
      if (digest(policy, 1) != digest(policy, 3)) {
        deterministic = false;
        ctx.os() << "\n" << policy << ": 1-vs-3-thread STATES DIVERGED\n";
      }
    }

    // The cross-policy claims.
    const bool beatsOwnerOnly =
        congestion["skewed"]["tree-counters"] <
        congestion["skewed"]["owner-only"];
    const bool beatsFullReplication =
        congestion["skewed-churn"]["tree-counters"] <
        congestion["skewed-churn"]["full-replication"];
    double staticWorstRatio = 0.0;
    std::uint64_t staticHandoffs = 0;
    for (const char* label : {"skewed", "bursty", "diurnal"}) {
      staticWorstRatio = std::max(
          staticWorstRatio, ratio[label]["static:placement=extended-nibble"]);
      staticHandoffs += replaced[label]["static:placement=extended-nibble"];
    }
    const bool staticWithinBound =
        staticWorstRatio <= kRatioBound && staticHandoffs > 0;

    // Adaptive's claims: on every fixed-regime stream it tracks the
    // best fixed policy (paying at most kAdaptiveSlack for scoring and
    // switch lag); on the regime-cycling phase-shift stream no fixed
    // policy keeps up and adaptive is strictly best.
    double adaptiveWorstSlack = 0.0;
    std::string adaptiveWorstStream;
    for (const char* label :
         {"skewed", "bursty", "diurnal", "skewed-churn", "ping-pong"}) {
      double bestFixed = 0.0;
      bool first = true;
      for (const auto& [policy, value] : congestion[label]) {
        if (policy == "adaptive") continue;
        if (first || value < bestFixed) bestFixed = value;
        first = false;
      }
      const double slack =
          bestFixed > 0.0 ? congestion[label]["adaptive"] / bestFixed : 0.0;
      if (slack > adaptiveWorstSlack) {
        adaptiveWorstSlack = slack;
        adaptiveWorstStream = label;
      }
    }
    const bool adaptiveNearBest = adaptiveWorstSlack <= kAdaptiveSlack;
    bool adaptiveBestOnPhaseShift = true;
    for (const auto& [policy, value] : congestion["phase-shift"]) {
      if (policy == "adaptive") continue;
      if (congestion["phase-shift"]["adaptive"] >= value) {
        adaptiveBestOnPhaseShift = false;
      }
    }

    ctx.os() << "\nread-heavy skew: tree-counters "
             << util::formatDouble(congestion["skewed"]["tree-counters"], 1)
             << " vs owner-only "
             << util::formatDouble(congestion["skewed"]["owner-only"], 1)
             << "\nwrite-heavy churn: tree-counters "
             << util::formatDouble(
                    congestion["skewed-churn"]["tree-counters"], 1)
             << " vs full-replication "
             << util::formatDouble(
                    congestion["skewed-churn"]["full-replication"], 1)
             << "\nstatic+handoff worst generated-stream ratio "
             << util::formatDouble(staticWorstRatio, 2) << " (bound "
             << util::formatDouble(kRatioBound, 1) << ", "
             << staticHandoffs << " handoffs); per-policy sharding "
             << (deterministic ? "thread-count independent"
                               : "DIVERGED")
             << "\nadaptive worst slack vs best fixed "
             << util::formatDouble(adaptiveWorstSlack, 3) << " ("
             << adaptiveWorstStream << ", bound "
             << util::formatDouble(kAdaptiveSlack, 2)
             << "); phase-shift: adaptive "
             << util::formatDouble(congestion["phase-shift"]["adaptive"], 1)
             << (adaptiveBestOnPhaseShift ? " strictly best"
                                          : " NOT best")
             << "\n";

    reporter.check(
        "tree-counters beats owner-only on read-heavy skew",
        beatsOwnerOnly, congestion["skewed"]["tree-counters"]);
    reporter.check(
        "tree-counters beats full-replication on write-heavy churn",
        beatsFullReplication, congestion["skewed-churn"]["tree-counters"]);
    reporter.check(
        "static + drift handoff stays within the e12 ratio bound on generated "
        "streams",
        staticWithinBound, staticWorstRatio);
    reporter.check(
        "every policy's epoch sharding is thread-count independent",
        deterministic);
    reporter.check(
        "adaptive stays within 1.10x of the best fixed policy on every "
        "fixed-regime stream",
        adaptiveNearBest, adaptiveWorstSlack);
    reporter.check(
        "adaptive is strictly best on the regime-cycling phase-shift stream",
        adaptiveBestOnPhaseShift, congestion["phase-shift"]["adaptive"]);
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t epochOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerPolicyComparison(engine::ExperimentRegistry& registry) {
  registry.add(
      {"policy-comparison",
       "unified online-policy engine: every registered policy over every "
       "stream family, cross-policy congestion claims checked",
       "E14 / section 4 + section 1.3 (online policy family)",
       "requests=N,epoch=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t epoch = options.getInt("epoch", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<PolicyComparisonExperiment>(requests, epoch,
                                                            objects);
      },
      {"e14"});
}
}  // namespace detail

}  // namespace hbn::bench
