// Experiment E9 (motivation, §1): congestion of the extended-nibble
// strategy against the baselines across the topology × workload grid —
// the "who wins, by what factor" table. Strategies are instantiated from
// the engine registry, so `--strategy a,b,c` compares any subset.
#include <memory>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/core/load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class StrategyComparisonExperiment final : public engine::Experiment {
 public:
  explicit StrategyComparisonExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "strategy-comparison";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(9);
    const std::vector<std::string> specs =
        ctx.strategies.empty()
            ? std::vector<std::string>{"extended-nibble", "best-single-copy",
                                       "weighted-median",
                                       "random-single-copy",
                                       "full-replication"}
            : ctx.strategies;
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(6);

    ctx.os() << "E9 — strategy comparison: mean congestion normalised by "
                "the lower bound (lower is better, 1.0 = optimal)\nseed="
             << seed << ", trials per cell=" << kTrials << "\n\n";

    std::vector<std::unique_ptr<engine::PlacementStrategy>> strategies;
    std::vector<std::string> header{"topology", "workload"};
    for (const std::string& spec : specs) {
      strategies.push_back(engine::StrategyRegistry::global().create(spec));
      header.push_back(spec);
    }
    util::Table table(header);
    util::Rng master(seed);

    for (const auto family :
         {net::TopologyFamily::kary, net::TopologyFamily::star,
          net::TopologyFamily::caterpillar, net::TopologyFamily::random,
          net::TopologyFamily::cluster}) {
      for (const auto profile :
           {workload::Profile::uniform, workload::Profile::zipf,
            workload::Profile::hotspot, workload::Profile::clustered,
            workload::Profile::producerConsumer,
            workload::Profile::adversarial}) {
        std::vector<util::Accumulator> ratios(strategies.size());
        for (int trial = 0; trial < kTrials; ++trial) {
          util::Rng rng = master.split();
          const net::Tree tree = net::makeFamilyMember(family, 48, rng);
          const net::RootedTree rooted(tree, tree.defaultRoot());
          workload::GenParams params;
          params.numObjects = 16;
          params.requestsPerProcessor = 30;
          params.readFraction = 0.2 + 0.6 * rng.nextDouble();
          const workload::Workload load =
              workload::generate(profile, tree, params, rng);
          const double lb =
              core::analyticLowerBound(rooted, load).congestion;
          if (lb <= 0.0) continue;
          for (std::size_t s = 0; s < strategies.size(); ++s) {
            engine::Context strategyCtx;
            strategyCtx.threads = ctx.threads;
            strategyCtx.seed = seed + static_cast<std::uint64_t>(trial);
            util::Timer timer;
            const core::Placement placement =
                strategies[s]->place(tree, load, strategyCtx);
            reporter.addTiming(timer.millis());
            const double congestion =
                core::evaluateCongestion(rooted, placement);
            ratios[s].add(congestion / lb);
          }
        }
        if (ratios.empty() || ratios[0].empty()) continue;
        std::vector<std::string> row{net::topologyFamilyName(family),
                                     workload::profileName(profile)};
        for (const util::Accumulator& acc : ratios) {
          row.push_back(util::formatDouble(acc.mean(), 2));
        }
        table.addRow(row);
        for (std::size_t s = 0; s < specs.size(); ++s) {
          reporter.beginRow();
          reporter.field("topology", net::topologyFamilyName(family));
          reporter.field("workload", workload::profileName(profile));
          reporter.field("strategy", specs[s]);
          reporter.field("ratio_mean", ratios[s].mean());
          reporter.field("ratio_max", ratios[s].max());
        }
      }
    }
    table.print(ctx.os());
    ctx.os() << "\n(extended-nibble carries the only worst-case guarantee; "
                "single-copy baselines lose badly on read-heavy or "
                "clustered traffic, full replication on write traffic)\n";
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerStrategyComparison(engine::ExperimentRegistry& registry) {
  registry.add(
      {"strategy-comparison",
       "congestion of every registry strategy normalised by the lower "
       "bound over the topology x workload grid",
       "E9 / motivation (section 1)", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<StrategyComparisonExperiment>(trials);
      },
      {"e9"});
}
}  // namespace detail

}  // namespace hbn::bench
