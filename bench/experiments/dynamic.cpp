// Experiment E11 (related work, §1.3 — extension): empirical competitive
// ratio of the online replicate/invalidate tree strategy against the
// offline static lower bound, including adversarial ping-pong sequences.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "experiments.h"
#include "hbn/dynamic/harness.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class DynamicExperiment final : public engine::Experiment {
 public:
  explicit DynamicExperiment(int trialsOverride)
      : trialsOverride_(trialsOverride) {}

  [[nodiscard]] std::string_view name() const override { return "dynamic"; }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(11);
    const int kTrials =
        trialsOverride_ > 0 ? trialsOverride_ : ctx.trials(10);
    ctx.os() << "E11 — online tree strategy: congestion ratio vs offline "
                "static lower bound (threshold D sweep)\nseed="
             << seed << "\n\n";

    util::Table table({"sequence", "threshold D", "mean ratio", "max ratio",
                       "mean replications", "mean invalidations"});
    util::Rng master(seed);

    for (const core::Count threshold : {1, 2, 4}) {
      for (const bool pingPong : {false, true}) {
        util::Accumulator ratio;
        util::Accumulator repl;
        util::Accumulator inval;
        for (int trial = 0; trial < kTrials; ++trial) {
          util::Rng rng = master.split();
          const net::Tree tree = net::makeRandomTree(24, 8, rng);
          const net::RootedTree rooted(tree, tree.defaultRoot());
          std::vector<dynamic::Request> requests;
          int numObjects = 6;
          if (pingPong) {
            requests =
                dynamic::makePingPongSequence(tree, numObjects, 20, 5, rng);
          } else {
            workload::GenParams params;
            params.numObjects = numObjects;
            params.requestsPerProcessor = 40;
            params.readFraction = 0.75;
            const workload::Workload load = workload::generate(
                static_cast<workload::Profile>(trial % 6), tree, params,
                rng);
            requests = dynamic::sequenceFromWorkload(load, rng);
          }
          // One pass of the serving engine with the §4 drift handoff off:
          // the online policy alone against the offline bound.
          serve::ServeOptions options;
          options.threads = 1;
          options.replaceDrift = 0.0;
          options.policy =
              "tree-counters:threshold=" + std::to_string(threshold);
          util::Timer timer;
          serve::EpochServer server(rooted, numObjects, options);
          serve::VectorStream stream(std::move(requests));
          const serve::ServeReport result = server.serve(stream);
          reporter.addTiming(timer.millis());
          if (result.lowerBound > 0.0) ratio.add(result.ratio);
          repl.add(static_cast<double>(result.replications));
          inval.add(static_cast<double>(result.invalidations));
        }
        if (ratio.empty()) continue;
        table.addRow({pingPong ? "ping-pong adversary" : "shuffled static",
                      std::to_string(threshold),
                      util::formatDouble(ratio.mean(), 2),
                      util::formatDouble(ratio.max(), 2),
                      util::formatDouble(repl.mean(), 1),
                      util::formatDouble(inval.mean(), 1)});
        reporter.beginRow();
        reporter.field("sequence",
                       pingPong ? "ping-pong" : "shuffled-static");
        reporter.field("threshold",
                       static_cast<std::int64_t>(threshold));
        reporter.field("ratio_mean", ratio.mean());
        reporter.field("ratio_max", ratio.max());
        reporter.field("replications_mean", repl.mean());
        reporter.field("invalidations_mean", inval.mean());
      }
    }
    table.print(ctx.os());
    ctx.os() << "\n(the FOCS'97 dynamic tree strategy is 3-competitive; "
                "this adaptation should land in the same small-constant "
                "regime on shuffled static traffic)\n";
  }

 private:
  int trialsOverride_;
};

}  // namespace

namespace detail {
void registerDynamic(engine::ExperimentRegistry& registry) {
  registry.add(
      {"dynamic",
       "online replicate/invalidate tree strategy: empirical competitive "
       "ratio vs the offline static lower bound",
       "E11 / related work (section 1.3)", "trials=N"},
      [](engine::StrategyOptions& options) {
        const int trials = static_cast<int>(options.getInt("trials", 0));
        return std::make_unique<DynamicExperiment>(trials);
      },
      {"e11"});
}
}  // namespace detail

}  // namespace hbn::bench
