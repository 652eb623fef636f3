// Experiment E10 — ablations of the extended-nibble design choices,
// expressed as registry option specs:
//   (a) skipping the deletion step     extended-nibble:deletion=0
//   (b) the acceptable-load multiplier extended-nibble:acc=N (paper: 2).
// Reports congestion ratio vs lower bound and how often the mapping step
// had to violate its free-edge condition (forcedMoves; 0 for the paper's
// configuration by Lemma 4.1), read from the strategy's Context metrics.
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/core/lower_bound.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class AblationExperiment final : public engine::Experiment {
 public:
  explicit AblationExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override { return "ablation"; }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(10);
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(12);
    const std::vector<std::string> specs =
        ctx.strategies.empty()
            ? std::vector<std::string>{"extended-nibble",
                                       "extended-nibble:deletion=0",
                                       "extended-nibble:acc=1",
                                       "extended-nibble:acc=3",
                                       "extended-nibble:acc=8"}
            : ctx.strategies;

    ctx.os() << "E10 — ablation of the extended-nibble design choices\n"
                "seed="
             << seed << ", trials per row=" << kTrials << "\n\n";

    util::Table table({"variant", "mean C/LB", "max C/LB", "forced moves",
                       "mean tau_max/kappa_max"});
    util::Rng master(seed);
    bool paperConfigClean = true;

    for (const std::string& spec : specs) {
      const auto strategy = engine::StrategyRegistry::global().create(spec);
      util::Accumulator ratio;
      util::Accumulator tauShare;
      long forced = 0;
      util::Rng trialRng = master;  // same instances for every variant
      for (int trial = 0; trial < kTrials; ++trial) {
        util::Rng rng = trialRng.split();
        const net::Tree tree = net::makeRandomTree(48, 14, rng);
        const net::RootedTree rooted(tree, tree.defaultRoot());
        workload::GenParams params;
        params.numObjects = 16;
        params.requestsPerProcessor = 30;
        params.readFraction = 0.2 + 0.6 * rng.nextDouble();
        const workload::Workload load = workload::generate(
            static_cast<workload::Profile>(trial % 6), tree, params, rng);
        const double lb =
            core::analyticLowerBound(rooted, load).congestion;
        if (lb <= 0.0) continue;
        engine::Context strategyCtx;
        strategyCtx.threads = ctx.threads;
        strategyCtx.seed = seed;
        util::Timer timer;
        (void)strategy->place(tree, load, strategyCtx);
        reporter.addTiming(timer.millis());
        if (strategyCtx.metrics.count("congestion.final") == 0) {
          throw std::invalid_argument(
              "ablation compares extended-nibble variants; '" + spec +
              "' does not report the pipeline metrics it needs");
        }
        ratio.add(strategyCtx.metrics.at("congestion.final") / lb);
        forced +=
            static_cast<long>(strategyCtx.metrics.at("mapping.forcedMoves"));
        if (load.maxWriteContention() > 0) {
          tauShare.add(strategyCtx.metrics.at("mapping.tauMax") /
                       static_cast<double>(load.maxWriteContention()));
        }
      }
      // Lemma 4.1: the paper's configuration (the plain spec) never
      // forces a mapping move and keeps tau_max within 3x the write
      // contention.
      if (spec == "extended-nibble") {
        paperConfigClean &= (forced == 0);
        paperConfigClean &=
            tauShare.empty() || tauShare.max() <= 3.0 + 1e-12;
      }
      table.addRow({spec, util::formatDouble(ratio.mean(), 3),
                    util::formatDouble(ratio.max(), 3),
                    std::to_string(forced),
                    util::formatDouble(tauShare.mean(), 3)});
      reporter.beginRow();
      reporter.field("variant", spec);
      reporter.field("ratio_mean", ratio.mean());
      reporter.field("ratio_max", ratio.max());
      reporter.field("forced_moves", forced);
      reporter.field("tau_share_mean", tauShare.mean());
    }
    table.print(ctx.os());
    ctx.os() << "\n(the paper's configuration must show 0 forced moves and "
                "tau_max <= 3*kappa_max; ablations may not)\n";
    reporter.check(
        "the paper's configuration forces no mapping moves and keeps tau_max "
        "<= 3*kappa_max (Lemma 4.1)",
        paperConfigClean);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerAblation(engine::ExperimentRegistry& registry) {
  registry.add(
      {"ablation",
       "extended-nibble design ablations (skip deletion, vary the "
       "acceptable-load multiplier) vs the paper's configuration",
       "E10 / design ablations", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<AblationExperiment>(trials);
      },
      {"e10"});
}
}  // namespace detail

}  // namespace hbn::bench
