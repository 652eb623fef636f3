// Experiment E1 (Theorem 4.3): measured congestion of the extended-nibble
// strategy divided by the certified lower bound, across the full
// topology × workload grid. The theorem promises a ratio of at most 7;
// this experiment reports the realised distribution.
#include <algorithm>
#include <memory>

#include "experiments.h"
#include "hbn/core/extended_nibble.h"
#include "hbn/core/lower_bound.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class ApproxRatioExperiment final : public engine::Experiment {
 public:
  explicit ApproxRatioExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "approx-ratio";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(20000701);  // SPAA 2000
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(8);
    ctx.os() << "E1 / Theorem 4.3 — extended-nibble congestion vs lower "
                "bound (<= 7 guaranteed)\n"
             << "seed=" << seed << ", trials per cell=" << kTrials << "\n\n";

    util::Table table({"topology", "bandwidths", "workload", "procs",
                       "mean C/LB", "max C/LB", "mean C", "mean LB"});
    util::Rng master(seed);
    double globalMax = 0.0;

    for (const bool fatTree : {false, true}) {
      for (const auto family :
           {net::TopologyFamily::kary, net::TopologyFamily::star,
            net::TopologyFamily::caterpillar, net::TopologyFamily::random,
            net::TopologyFamily::cluster}) {
        for (const auto profile :
             {workload::Profile::uniform, workload::Profile::zipf,
              workload::Profile::hotspot, workload::Profile::clustered,
              workload::Profile::producerConsumer,
              workload::Profile::adversarial}) {
          util::Accumulator ratio;
          util::Accumulator congestion;
          util::Accumulator lowerBound;
          int procs = 0;
          for (int trial = 0; trial < kTrials; ++trial) {
            util::Rng rng = master.split();
            net::BandwidthModel bw;
            bw.fatTree = fatTree;
            const net::Tree tree = net::makeFamilyMember(family, 64, rng, bw);
            procs = tree.processorCount();
            workload::GenParams params;
            params.numObjects = 24;
            params.requestsPerProcessor = 40;
            params.readFraction = 0.2 + 0.6 * rng.nextDouble();
            const workload::Workload load =
                workload::generate(profile, tree, params, rng);

            util::Timer timer;
            const auto result = core::extendedNibble(tree, load);
            reporter.addTiming(timer.millis());
            const net::RootedTree rooted(tree, tree.defaultRoot());
            // Combined bound: per-edge minima plus the per-object κ/h
            // argument (essential on fat trees; see lower_bound.h).
            const double lb = core::combinedLowerBound(rooted, load);
            if (lb <= 0.0) continue;
            ratio.add(result.report.congestionFinal / lb);
            congestion.add(result.report.congestionFinal);
            lowerBound.add(lb);
          }
          if (ratio.empty()) continue;
          globalMax = std::max(globalMax, ratio.max());
          table.addRow({net::topologyFamilyName(family),
                        fatTree ? "fat-tree" : "uniform",
                        workload::profileName(profile), std::to_string(procs),
                        util::formatDouble(ratio.mean(), 3),
                        util::formatDouble(ratio.max(), 3),
                        util::formatDouble(congestion.mean(), 1),
                        util::formatDouble(lowerBound.mean(), 1)});
          reporter.beginRow();
          reporter.field("topology", net::topologyFamilyName(family));
          reporter.field("bandwidths", fatTree ? "fat-tree" : "uniform");
          reporter.field("workload", workload::profileName(profile));
          reporter.field("procs", procs);
          reporter.field("trials", static_cast<std::int64_t>(ratio.count()));
          reporter.field("ratio_mean", ratio.mean());
          reporter.field("ratio_max", ratio.max());
          reporter.field("congestion_mean", congestion.mean());
          reporter.field("lower_bound_mean", lowerBound.mean());
        }
      }
    }
    table.print(ctx.os());
    const bool withinBound = globalMax <= 7.0;
    ctx.os() << "\nglobal max C/LB = " << util::formatDouble(globalMax, 3)
             << (withinBound ? "  (within the Theorem 4.3 bound of 7)"
                             : "  (BOUND VIOLATED!)")
             << "\n";
    reporter.check(
        "congestion/lower-bound <= 7 (Theorem 4.3)",
        withinBound, globalMax);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerApproxRatio(engine::ExperimentRegistry& registry) {
  registry.add(
      {"approx-ratio",
       "extended-nibble congestion vs certified lower bound across the "
       "topology x workload grid",
       "E1 / Theorem 4.3", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<ApproxRatioExperiment>(trials);
      },
      {"e1"});
}
}  // namespace detail

}  // namespace hbn::bench
