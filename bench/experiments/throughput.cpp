// Experiment E7 (congestion predicts throughput, cf. [8]): deliver the
// message set of the registry strategies through the store-and-forward
// simulator and correlate congestion with makespan.
#include <memory>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/net/generators.h"
#include "hbn/sim/simulator.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class ThroughputExperiment final : public engine::Experiment {
 public:
  explicit ThroughputExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "throughput";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(7);
    const std::vector<std::string> specs =
        ctx.strategies.empty()
            ? std::vector<std::string>{"extended-nibble", "best-single-copy",
                                       "weighted-median",
                                       "random-single-copy",
                                       "full-replication"}
            : ctx.strategies;
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(8);

    ctx.os() << "E7 — congestion vs simulated makespan across strategies "
                "(store-and-forward delivery of the full message set)\nseed="
             << seed << "\n\n";

    struct StrategyRow {
      util::Accumulator congestion;
      util::Accumulator makespan;
      util::Accumulator dilation;
      util::Accumulator wallMs;
    };
    std::vector<StrategyRow> rows(specs.size());
    std::vector<double> allCongestion;
    std::vector<double> allMakespan;

    util::Rng master(seed);
    const net::Tree tree = net::makeClusterNetwork(4, 5);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    std::vector<std::unique_ptr<engine::PlacementStrategy>> strategies;
    for (const std::string& spec : specs) {
      strategies.push_back(engine::StrategyRegistry::global().create(spec));
    }
    for (int trial = 0; trial < kTrials; ++trial) {
      util::Rng rng = master.split();
      workload::GenParams params;
      params.numObjects = 10;
      params.requestsPerProcessor = 30;
      params.readFraction = 0.75;
      const workload::Workload load =
          workload::generateClustered(tree, params, rng);

      for (std::size_t s = 0; s < specs.size(); ++s) {
        engine::Context strategyCtx;
        strategyCtx.threads = ctx.threads;
        strategyCtx.seed = seed + static_cast<std::uint64_t>(trial);
        util::Timer timer;
        const core::Placement placement =
            strategies[s]->place(tree, load, strategyCtx);
        const double wallMs = timer.millis();
        reporter.addTiming(wallMs);
        const sim::SimResult result =
            sim::simulatePlacement(rooted, load, placement);
        rows[s].congestion.add(result.congestion);
        rows[s].makespan.add(static_cast<double>(result.makespan));
        rows[s].dilation.add(static_cast<double>(result.dilation));
        rows[s].wallMs.add(wallMs);
        allCongestion.push_back(result.congestion);
        allMakespan.push_back(static_cast<double>(result.makespan));
      }
    }

    // Pooled over every strategy's trials; informational (no hard paper
    // bound), so it rides on each row rather than gating the run.
    const double correlation = util::pearson(allCongestion, allMakespan);
    util::Table table({"strategy", "mean congestion", "mean makespan",
                       "mean dilation", "makespan/congestion"});
    for (std::size_t s = 0; s < specs.size(); ++s) {
      table.addRow(
          {specs[s], util::formatDouble(rows[s].congestion.mean(), 1),
           util::formatDouble(rows[s].makespan.mean(), 1),
           util::formatDouble(rows[s].dilation.mean(), 1),
           util::formatDouble(
               rows[s].makespan.mean() / rows[s].congestion.mean(), 3)});
      reporter.beginRow();
      reporter.field("strategy", specs[s]);
      reporter.field("n", tree.nodeCount());
      reporter.field("objects", 10);
      reporter.field("threads", ctx.threads);
      reporter.field("trials", kTrials);
      reporter.field("wall_ms", rows[s].wallMs.mean());
      reporter.field("congestion", rows[s].congestion.mean());
      reporter.field("makespan", rows[s].makespan.mean());
      reporter.field("dilation", rows[s].dilation.mean());
      reporter.field("correlation", correlation);
    }
    table.print(ctx.os());
    ctx.os() << "\nPearson correlation (congestion, makespan) = "
             << util::formatDouble(correlation, 4)
             << (correlation > 0.9 ? "  (congestion predicts throughput)"
                                   : "")
             << "\n";
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerThroughput(engine::ExperimentRegistry& registry) {
  registry.add(
      {"throughput",
       "store-and-forward delivery of each strategy's message set: "
       "congestion vs makespan and dilation",
       "E7 / congestion-throughput relation", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<ThroughputExperiment>(trials);
      },
      {"e7"});
}
}  // namespace detail

}  // namespace hbn::bench
