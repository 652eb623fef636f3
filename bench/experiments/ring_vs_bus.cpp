// Experiment E6 (Figures 1-2): a hierarchical ring network and its bus
// abstraction carry identical loads for the same transaction sets — the
// modelling step the whole paper rests on.
#include <memory>
#include <string>

#include "experiments.h"
#include "hbn/core/load.h"
#include "hbn/sci/ring_network.h"
#include "hbn/sci/transactions.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::bench {
namespace {

class RingVsBusExperiment final : public engine::Experiment {
 public:
  explicit RingVsBusExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override {
    return "ring-vs-bus";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(6);
    const int kRandomCases =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(5);
    ctx.os() << "E6 / Figures 1-2 — ring-network congestion vs bus-model "
                "congestion for identical transaction sets\nseed="
             << seed << "\n\n";

    util::Table table({"topology", "rings", "procs", "transactions",
                       "ring congestion", "bus congestion", "equal"});
    util::Rng master(seed);
    bool allEqual = true;

    auto runCase = [&](const sci::RingNetwork& network, const char* label,
                       int transactions) {
      util::Rng rng = master.split();
      const sci::BusView view = sci::toBusNetwork(network);
      const net::RootedTree rooted(view.tree, view.tree.defaultRoot());
      sci::TransactionAccounting ringAcc(network);
      core::LoadMap busLoads(view.tree.edgeCount());
      util::Timer timer;
      for (int i = 0; i < transactions; ++i) {
        const auto u = static_cast<sci::ProcId>(rng.nextBelow(
            static_cast<std::uint64_t>(network.processorCount())));
        const auto v = static_cast<sci::ProcId>(rng.nextBelow(
            static_cast<std::uint64_t>(network.processorCount())));
        const auto amount = static_cast<sci::Count>(1 + rng.nextBelow(4));
        ringAcc.addTransactions(u, v, amount);
        if (u != v) {
          rooted.forEachPathEdge(
              view.processorNode[static_cast<std::size_t>(u)],
              view.processorNode[static_cast<std::size_t>(v)],
              [&](net::EdgeId e) { busLoads.addEdgeLoad(e, amount); });
        }
      }
      reporter.addTiming(timer.millis());
      const double ringCongestion = ringAcc.congestion();
      const double busCongestion = busLoads.congestion(view.tree);
      const bool equal = ringCongestion == busCongestion;
      allEqual &= equal;
      table.addRow({label, std::to_string(network.ringCount()),
                    std::to_string(network.processorCount()),
                    std::to_string(transactions),
                    util::formatDouble(ringCongestion, 2),
                    util::formatDouble(busCongestion, 2),
                    equal ? "yes" : "NO"});
      reporter.beginRow();
      reporter.field("topology", label);
      reporter.field("rings", network.ringCount());
      reporter.field("procs", network.processorCount());
      reporter.field("transactions", transactions);
      reporter.field("ring_congestion", ringCongestion);
      reporter.field("bus_congestion", busCongestion);
      reporter.field("equal", equal);
    };

    runCase(sci::makeBalancedRingHierarchy(2, 2, 4, 4.0, 2.0), "binary d2",
            500);
    runCase(sci::makeBalancedRingHierarchy(3, 3, 3, 8.0, 4.0), "ternary d3",
            800);
    runCase(sci::makeBalancedRingHierarchy(4, 2, 6, 16.0, 8.0), "quad d2",
            800);
    for (int trial = 0; trial < kRandomCases; ++trial) {
      util::Rng rng = master.split();
      runCase(sci::makeRandomRingHierarchy(
                  3 + static_cast<int>(rng.nextBelow(10)),
                  16 + static_cast<int>(rng.nextBelow(32)), rng),
              "random", 600);
    }
    table.print(ctx.os());
    ctx.os() << "\nring model == bus model on every instance: "
             << (allEqual ? "yes (Figure 1 -> Figure 2 is exact)"
                          : "NO — BUG")
             << "\n";
    reporter.check(
        "hierarchical ring loads equal bus-abstraction loads (Figures 1-2)",
        allEqual);
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerRingVsBus(engine::ExperimentRegistry& registry) {
  registry.add(
      {"ring-vs-bus",
       "SCI ring hierarchy and its bus-network abstraction carry "
       "identical congestion for the same transactions",
       "E6 / Figures 1-2", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<RingVsBusExperiment>(trials);
      },
      {"e6"});
}
}  // namespace detail

}  // namespace hbn::bench
