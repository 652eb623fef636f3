// Experiment E8 (distributed execution): round counts of the distributed
// nibble computation vs the O(|X| + height(T)) schedule, with perfect
// pipelining (max queue depth 1).
#include <memory>
#include <string>

#include "experiments.h"
#include "hbn/core/nibble.h"
#include "hbn/dist/distributed_nibble.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

class DistributedRoundsExperiment final : public engine::Experiment {
 public:
  [[nodiscard]] std::string_view name() const override {
    return "distributed-rounds";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(8);
    ctx.os() << "E8 — distributed nibble: measured rounds vs the "
                "|X| + 4*height schedule; placement identical to "
                "sequential\nseed="
             << seed << "\n\n";

    util::Table table({"topology", "height", "|X|", "rounds",
                       "|X|+4h bound", "max queue", "messages",
                       "matches sequential"});
    util::Rng master(seed);
    bool allMatch = true;
    bool allPipelined = true;

    struct Case {
      const char* name;
      net::Tree tree;
    };
    util::Rng topoRng = master.split();
    Case cases[] = {
        {"kary(4,3)", net::makeKaryTree(4, 3)},
        {"kary(2,6)", net::makeKaryTree(2, 6)},
        {"caterpillar(16,2)", net::makeCaterpillar(16, 2)},
        {"random(48,16)", net::makeRandomTree(48, 16, topoRng)},
        {"cluster(6,6)", net::makeClusterNetwork(6, 6)},
    };
    // Smoke mode drops the largest object count, not the topologies: the
    // round-count claim must keep covering every tree shape.
    const std::vector<int> objectCounts =
        ctx.smoke ? std::vector<int>{4, 16} : std::vector<int>{4, 16, 64};
    for (const auto& c : cases) {
      for (const int numObjects : objectCounts) {
        util::Rng rng = master.split();
        workload::GenParams params;
        params.numObjects = numObjects;
        params.requestsPerProcessor = 12;
        const workload::Workload load =
            workload::generateUniform(c.tree, params, rng);
        const net::RootedTree rooted(c.tree, c.tree.defaultRoot());
        util::Timer timer;
        const auto dist = dist::distributedNibble(rooted, load);
        reporter.addTiming(timer.millis());
        const auto seq = core::nibblePlacement(c.tree, load);
        bool match = true;
        for (std::size_t x = 0; x < seq.objects.size(); ++x) {
          match &= dist.placement.objects[x].locations() ==
                   seq.objects[x].locations();
        }
        allMatch &= match;
        allPipelined &= dist.stats.maxQueueDepth <= 1;
        const auto bound =
            static_cast<std::int64_t>(numObjects) + 4 * rooted.height() + 4;
        table.addRow({c.name, std::to_string(rooted.height()),
                      std::to_string(numObjects),
                      std::to_string(dist.stats.rounds),
                      std::to_string(bound),
                      std::to_string(dist.stats.maxQueueDepth),
                      std::to_string(dist.stats.messages),
                      match ? "yes" : "NO"});
        reporter.beginRow();
        reporter.field("topology", c.name);
        reporter.field("height",
                       static_cast<std::int64_t>(rooted.height()));
        reporter.field("objects", numObjects);
        reporter.field("rounds",
                       static_cast<std::int64_t>(dist.stats.rounds));
        reporter.field("round_bound", bound);
        reporter.field("max_queue_depth",
                       static_cast<std::int64_t>(dist.stats.maxQueueDepth));
        reporter.field("messages",
                       static_cast<std::int64_t>(dist.stats.messages));
        reporter.field("matches_sequential", match);
      }
    }
    table.print(ctx.os());
    ctx.os() << "\nplacements identical everywhere: "
             << (allMatch ? "yes" : "NO — BUG")
             << "; pipelining perfect (queue<=1): "
             << (allPipelined ? "yes" : "NO") << "\n";
    reporter.check(
        "distributed placement identical to sequential with perfect "
        "pipelining (queue depth <= 1)",
        allMatch && allPipelined);
  }
};

}  // namespace

namespace detail {
void registerDistributedRounds(engine::ExperimentRegistry& registry) {
  registry.add(
      {"distributed-rounds",
       "distributed nibble rounds vs the |X| + O(height) schedule; "
       "placements bit-identical to the sequential computation",
       "E8 / distributed execution", ""},
      [](engine::StrategyOptions&) {
        return std::make_unique<DistributedRoundsExperiment>();
      },
      {"e8"});
}
}  // namespace detail

}  // namespace hbn::bench
