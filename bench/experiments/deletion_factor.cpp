// Experiment E5 (Observation 3.2): after the deletion step every copy
// serves between κ_x and 2κ_x requests and every edge load grows by at
// most κ_x — measured as the realised worst-case factors.
#include <algorithm>
#include <memory>

#include "experiments.h"
#include "hbn/core/deletion.h"
#include "hbn/core/load.h"
#include "hbn/core/nibble.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class DeletionFactorExperiment final : public engine::Experiment {
 public:
  explicit DeletionFactorExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "deletion-factor";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(5);
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(12);
    ctx.os() << "E5 / Observation 3.2 — deletion step: copy loads in "
                "[kappa, 2*kappa], per-edge growth <= kappa\nseed="
             << seed << "\n\n";

    util::Table table({"workload", "copies before", "copies after",
                       "min s/kappa", "max s/kappa",
                       "max edge growth/kappa", "max edge factor"});
    util::Rng master(seed);
    bool withinBounds = true;

    for (const auto profile :
         {workload::Profile::uniform, workload::Profile::zipf,
          workload::Profile::hotspot, workload::Profile::clustered,
          workload::Profile::producerConsumer,
          workload::Profile::adversarial}) {
      long before = 0;
      long after = 0;
      double minShare = 1e18;
      double maxShare = 0.0;
      double maxGrowth = 0.0;
      double maxFactor = 0.0;
      for (int trial = 0; trial < kTrials; ++trial) {
        util::Rng rng = master.split();
        const net::Tree tree = net::makeRandomTree(40, 12, rng);
        workload::GenParams params;
        params.numObjects = 10;
        params.requestsPerProcessor = 30;
        const workload::Workload load =
            workload::generate(profile, tree, params, rng);
        const net::RootedTree rooted(tree, tree.defaultRoot());
        util::Timer timer;
        for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
          const auto kappa = load.objectWrites(x);
          if (kappa == 0) continue;
          const auto nib = core::nibbleObject(tree, load, x);
          const auto mod = core::deleteRarelyUsedCopies(
              tree, nib.placement, kappa, nib.gravityCenter);
          before += static_cast<long>(nib.placement.copies.size());
          after += static_cast<long>(mod.copies.size());
          if (mod.copies.size() > 1) {
            for (const auto& copy : mod.copies) {
              const double share = static_cast<double>(copy.servedTotal()) /
                                   static_cast<double>(kappa);
              minShare = std::min(minShare, share);
              maxShare = std::max(maxShare, share);
              withinBounds &=
                  (share >= 1.0 - 1e-12 && share <= 2.0 + 1e-12);
            }
          }
          core::LoadMap loadBefore(tree.edgeCount());
          core::accumulateObjectLoad(rooted, nib.placement, loadBefore);
          core::LoadMap loadAfter(tree.edgeCount());
          core::accumulateObjectLoad(rooted, mod, loadAfter);
          for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
            const auto growth =
                loadAfter.edgeLoad(e) - loadBefore.edgeLoad(e);
            maxGrowth = std::max(maxGrowth, static_cast<double>(growth) /
                                                static_cast<double>(kappa));
            if (loadBefore.edgeLoad(e) > 0) {
              maxFactor = std::max(
                  maxFactor, static_cast<double>(loadAfter.edgeLoad(e)) /
                                 static_cast<double>(loadBefore.edgeLoad(e)));
            }
            withinBounds &= (growth <= kappa);
          }
        }
        reporter.addTiming(timer.millis());
      }
      table.addRow({workload::profileName(profile), std::to_string(before),
                    std::to_string(after),
                    util::formatDouble(minShare > 1e17 ? 0.0 : minShare, 3),
                    util::formatDouble(maxShare, 3),
                    util::formatDouble(maxGrowth, 3),
                    util::formatDouble(maxFactor, 3)});
      reporter.beginRow();
      reporter.field("workload", workload::profileName(profile));
      reporter.field("copies_before", before);
      reporter.field("copies_after", after);
      reporter.field("min_share", minShare > 1e17 ? 0.0 : minShare);
      reporter.field("max_share", maxShare);
      reporter.field("max_edge_growth_over_kappa", maxGrowth);
      reporter.field("max_edge_factor", maxFactor);
    }
    table.print(ctx.os());
    ctx.os() << "\nall Observation 3.2 bounds held: "
             << (withinBounds ? "yes" : "NO — BUG") << "\n";
    reporter.check(
        "copy loads in [kappa, 2*kappa] and edge growth <= kappa (Observation "
        "3.2)",
        withinBounds);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerDeletionFactor(engine::ExperimentRegistry& registry) {
  registry.add(
      {"deletion-factor",
       "deletion step invariants: surviving copy loads stay in [kappa, "
       "2*kappa], per-edge growth at most kappa",
       "E5 / Observation 3.2", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<DeletionFactorExperiment>(trials);
      },
      {"e5"});
}
}  // namespace detail

}  // namespace hbn::bench
