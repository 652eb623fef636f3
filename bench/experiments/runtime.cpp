// Experiment E3 (Theorem 4.3 runtime): wall-clock running time of the
// registry strategies while scaling |X|, |V|, height(T), degree(T), and
// the worker-thread count. The theorem claims sequential time
// O(|X| · |P ∪ B| · height(T) · log(degree(T))); the thread-scaling rows
// time the object-sharded executor (its 1-vs-N bit-identity is pinned
// down by tests/engine_determinism_test.cpp, not here).
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/core/load.h"
#include "hbn/net/generators.h"
#include "hbn/util/rng.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

workload::Workload makeLoad(const net::Tree& tree, int numObjects,
                            std::uint64_t seed) {
  util::Rng rng(seed);
  workload::GenParams params;
  params.numObjects = numObjects;
  params.requestsPerProcessor = 16;
  params.readFraction = 0.5;
  return workload::generateUniform(tree, params, rng);
}

struct Case {
  std::string label;  // scaling axis description
  std::string topology;
  net::Tree tree;
  int objects;
  int threads;
};

class RuntimeExperiment final : public engine::Experiment {
 public:
  explicit RuntimeExperiment(int reps) : reps_(reps) {}

  [[nodiscard]] std::string_view name() const override { return "runtime"; }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(3);
    const std::vector<std::string> specs =
        ctx.strategies.empty()
            ? std::vector<std::string>{"nibble", "extended-nibble"}
            : ctx.strategies;
    // Smoke mode trims the top of every scaling axis; the axes and code
    // paths stay identical.
    const int maxObjects = ctx.smoke ? 32 : 128;
    const int maxArity = ctx.smoke ? 12 : 20;
    const int maxBuses = ctx.smoke ? 16 : 64;
    const int maxLeaves = ctx.smoke ? 64 : 256;
    const int maxThreads = ctx.smoke ? 4 : 8;
    const int threadCaseObjects = ctx.smoke ? 64 : 256;
    const int reps = reps_ > 0 ? reps_ : (ctx.smoke ? 2 : 3);

    std::vector<Case> cases;
    // --- Scale |X| at fixed topology.
    for (int objects = 8; objects <= maxObjects; objects *= 2) {
      cases.push_back({"objects", "kary(4,3)", net::makeKaryTree(4, 3),
                       objects, ctx.threads});
    }
    // --- Scale |V| at fixed height (wider k-ary trees).
    for (int arity = 4; arity <= maxArity; arity += 4) {
      cases.push_back({"nodes", "kary(" + std::to_string(arity) + ",2)",
                       net::makeKaryTree(arity, 2), 16, ctx.threads});
    }
    // --- Scale height at roughly fixed node count (caterpillars).
    for (int buses = 4; buses <= maxBuses; buses *= 2) {
      const int procsPerBus = std::max(1, 64 / buses);
      cases.push_back({"height",
                       "caterpillar(" + std::to_string(buses) + "," +
                           std::to_string(procsPerBus) + ")",
                       net::makeCaterpillar(buses, procsPerBus), 16,
                       ctx.threads});
    }
    // --- Scale degree at fixed size (stars).
    for (int leaves = 8; leaves <= maxLeaves; leaves *= 2) {
      cases.push_back({"degree", "star(" + std::to_string(leaves) + ")",
                       net::makeStar(leaves), 16, ctx.threads});
    }
    // --- Thread scaling on one large instance (result bit-identical).
    for (int threads = 1; threads <= maxThreads; threads *= 2) {
      cases.push_back({"threads", "kary(4,4)", net::makeKaryTree(4, 4),
                       threadCaseObjects, threads});
    }

    util::Table table({"axis", "strategy", "topology", "n", "objects",
                       "threads", "wall ms", "congestion"});
    for (const std::string& spec : specs) {
      const auto strategy = engine::StrategyRegistry::global().create(spec);
      for (const Case& c : cases) {
        const workload::Workload load = makeLoad(c.tree, c.objects, seed);
        engine::Context strategyCtx;
        strategyCtx.seed = seed;
        strategyCtx.threads = c.threads;
        // Best of `reps` runs: the usual antidote to scheduler noise.
        double wallMs = 0.0;
        core::Placement placement;
        for (int rep = 0; rep < reps; ++rep) {
          util::Timer timer;
          placement = strategy->place(c.tree, load, strategyCtx);
          const double ms = timer.millis();
          wallMs = rep == 0 ? ms : std::min(wallMs, ms);
        }
        reporter.addTiming(wallMs);
        const net::RootedTree rooted(c.tree, c.tree.defaultRoot());
        const double congestion = core::evaluateCongestion(rooted, placement);

        table.addRow({c.label, spec, c.topology,
                      std::to_string(c.tree.nodeCount()),
                      std::to_string(c.objects), std::to_string(c.threads),
                      util::formatDouble(wallMs, 3),
                      util::formatDouble(congestion, 2)});
        reporter.beginRow();
        reporter.field("strategy", spec);
        reporter.field("axis", c.label);
        reporter.field("topology", c.topology);
        reporter.field("n", c.tree.nodeCount());
        reporter.field("objects", c.objects);
        reporter.field("threads", c.threads);
        reporter.field("wall_ms", wallMs);
        reporter.field("congestion", congestion);
      }
    }

    ctx.os() << "E3 — runtime scaling (seed=" << seed << ")\n\n";
    table.print(ctx.os());
  }

 private:
  int reps_;
};

}  // namespace

namespace detail {
void registerRuntime(engine::ExperimentRegistry& registry) {
  registry.add(
      {"runtime",
       "wall-clock scaling of the registry strategies over objects, "
       "nodes, height, degree, and worker threads",
       "E3 / Theorem 4.3 (runtime)", "reps=N"},
      [](engine::StrategyOptions& options) {
        const int reps = static_cast<int>(options.getInt("reps", 0));
        return std::make_unique<RuntimeExperiment>(reps);
      },
      {"e3"});
}
}  // namespace detail

}  // namespace hbn::bench
