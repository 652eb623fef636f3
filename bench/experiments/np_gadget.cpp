// Experiment E2 (Theorem 2.1 / Figure 3): the PARTITION reduction.
// For YES instances the exact optimum congestion equals the threshold 4k;
// for NO instances it strictly exceeds it. Also reports how the
// (polynomial) extended-nibble strategy behaves on the gadget.
#include <memory>
#include <string>

#include "experiments.h"
#include "hbn/baseline/exact.h"
#include "hbn/core/extended_nibble.h"
#include "hbn/nphard/gadget.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

class NpGadgetExperiment final : public engine::Experiment {
 public:
  explicit NpGadgetExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override { return "np-gadget"; }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(21);
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(6);
    ctx.os() << "E2 / Theorem 2.1 — PARTITION gadget: congestion <= 4k iff "
                "the instance is solvable\nseed="
             << seed << "\n\n";

    util::Table table({"instance", "n", "k", "threshold 4k", "exact OPT",
                       "OPT==4k", "partition?", "ext-nibble C",
                       "search nodes"});
    util::Rng rng(seed);
    bool allConsistent = true;

    auto runInstance = [&](const nphard::PartitionInstance& instance,
                           const std::string& label) {
      const nphard::Gadget gadget = nphard::encodePartition(instance);
      const bool solvable = nphard::solvePartition(instance).has_value();
      util::Timer timer;
      const baseline::ExactResult opt =
          baseline::solveExact(gadget.tree, gadget.load);
      reporter.addTiming(timer.millis());
      const auto strategy = core::extendedNibble(gadget.tree, gadget.load);
      const bool hitsThreshold =
          opt.congestion == static_cast<double>(gadget.threshold());
      allConsistent &= (hitsThreshold == solvable);
      table.addRow({label, std::to_string(instance.items.size()),
                    std::to_string(gadget.k),
                    std::to_string(gadget.threshold()),
                    util::formatDouble(opt.congestion, 1),
                    hitsThreshold ? "yes" : "no", solvable ? "yes" : "no",
                    util::formatDouble(strategy.report.congestionFinal, 1),
                    std::to_string(opt.nodesExplored)});
      reporter.beginRow();
      reporter.field("instance", label);
      reporter.field("items", static_cast<std::int64_t>(
                                  instance.items.size()));
      reporter.field("k", static_cast<std::int64_t>(gadget.k));
      reporter.field("threshold",
                     static_cast<std::int64_t>(gadget.threshold()));
      reporter.field("exact_opt", opt.congestion);
      reporter.field("hits_threshold", hitsThreshold);
      reporter.field("partition_solvable", solvable);
      reporter.field("extended_nibble_congestion",
                     strategy.report.congestionFinal);
      reporter.field("search_nodes",
                     static_cast<std::int64_t>(opt.nodesExplored));
    };

    for (int trial = 0; trial < kTrials; ++trial) {
      runInstance(nphard::makeYesInstance(5 + trial, 15 + 3 * trial, rng),
                  "yes-" + std::to_string(trial));
    }
    for (int trial = 0; trial < kTrials; ++trial) {
      runInstance(nphard::makeNoInstance(4 + trial % 3, 9, rng),
                  "no-" + std::to_string(trial));
    }
    table.print(ctx.os());
    ctx.os() << "\nreduction consistent on all instances: "
             << (allConsistent ? "yes" : "NO — BUG") << "\n";
    reporter.check(
        "exact OPT == 4k iff PARTITION solvable (Theorem 2.1)",
        allConsistent);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerNpGadget(engine::ExperimentRegistry& registry) {
  registry.add(
      {"np-gadget",
       "PARTITION reduction gadget: exact optimum hits the 4k threshold "
       "iff the instance is solvable",
       "E2 / Theorem 2.1", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<NpGadgetExperiment>(trials);
      },
      {"e2"});
}
}  // namespace detail

}  // namespace hbn::bench
