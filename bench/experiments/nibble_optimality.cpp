// Experiment E4 (Theorem 3.1): the nibble placement achieves the analytic
// per-edge minimum load on EVERY edge, across random instances — reported
// as the fraction of edges at the minimum (must be 100%).
#include <algorithm>
#include <memory>

#include "experiments.h"
#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/core/nibble.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class NibbleOptimalityExperiment final : public engine::Experiment {
 public:
  explicit NibbleOptimalityExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "nibble-optimality";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(4);
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(10);
    ctx.os() << "E4 / Theorem 3.1 — nibble achieves the per-edge minimum "
                "load on every edge\nseed="
             << seed << "\n\n";

    util::Table table({"topology", "workload", "edges checked",
                       "edges optimal", "max per-object load/kappa"});
    util::Rng master(seed);
    bool allOptimal = true;

    for (const auto family :
         {net::TopologyFamily::kary, net::TopologyFamily::caterpillar,
          net::TopologyFamily::random, net::TopologyFamily::cluster}) {
      for (const auto profile :
           {workload::Profile::uniform, workload::Profile::zipf,
            workload::Profile::adversarial}) {
        long checked = 0;
        long optimal = 0;
        double maxKappaShare = 0.0;
        for (int trial = 0; trial < kTrials; ++trial) {
          util::Rng rng = master.split();
          const net::Tree tree = net::makeFamilyMember(family, 48, rng);
          workload::GenParams params;
          params.numObjects = 12;
          params.requestsPerProcessor = 25;
          const workload::Workload load =
              workload::generate(profile, tree, params, rng);
          const net::RootedTree rooted(tree, tree.defaultRoot());
          util::Timer timer;
          const auto placement = core::nibblePlacement(tree, load);
          reporter.addTiming(timer.millis());
          const auto actual = core::computeLoad(rooted, placement);
          const auto minima = core::analyticLowerBound(rooted, load);
          for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
            ++checked;
            if (actual.edgeLoad(e) == minima.edgeMinima.edgeLoad(e)) {
              ++optimal;
            }
          }
          // Per-object: load never exceeds the write contention κ_x.
          for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
            if (load.objectWrites(x) == 0) continue;
            core::LoadMap one(tree.edgeCount());
            core::accumulateObjectLoad(
                rooted, placement.objects[static_cast<std::size_t>(x)], one);
            for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
              maxKappaShare = std::max(
                  maxKappaShare,
                  static_cast<double>(one.edgeLoad(e)) /
                      static_cast<double>(load.objectWrites(x)));
            }
          }
        }
        allOptimal &= (checked == optimal);
        // The per-object kappa_x bound is part of the theorem, so it
        // gates the verdict too, not just the table.
        allOptimal &= (maxKappaShare <= 1.0 + 1e-12);
        table.addRow({net::topologyFamilyName(family),
                      workload::profileName(profile), std::to_string(checked),
                      std::to_string(optimal),
                      util::formatDouble(maxKappaShare, 3)});
        reporter.beginRow();
        reporter.field("topology", net::topologyFamilyName(family));
        reporter.field("workload", workload::profileName(profile));
        reporter.field("edges_checked", checked);
        reporter.field("edges_optimal", optimal);
        reporter.field("max_per_object_load_over_kappa", maxKappaShare);
      }
    }
    table.print(ctx.os());
    ctx.os() << "\nall edges at the analytic minimum: "
             << (allOptimal ? "yes (Theorem 3.1 confirmed)" : "NO — BUG")
             << "\n(per-object load/kappa <= 1 confirms the kappa_x "
                "bound)\n";
    reporter.check(
        "nibble load equals the per-edge analytic minimum on every edge and "
        "per-object load stays <= kappa_x (Theorem 3.1)",
        allOptimal);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerNibbleOptimality(engine::ExperimentRegistry& registry) {
  registry.add(
      {"nibble-optimality",
       "nibble placement hits the analytic per-edge minimum load on every "
       "edge of every random instance",
       "E4 / Theorem 3.1", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<NibbleOptimalityExperiment>(trials);
      },
      {"e4"});
}
}  // namespace detail

}  // namespace hbn::bench
