// Experiment E13: the batched difference-counting load engine versus the
// seed's per-request accounting, on serving-style traffic (the e12
// smoke workload: a skewed stream over the cluster network).
//
// The "legacy" arm is a faithful replica of the pre-batching serving
// engine — BFS entry point, binary-lifting LCA with a scratch-buffered
// path walk per request, an O(n) copy-location scan plus a
// vector-allocating steinerEdges call per write, and bounds-checked
// per-edge adds. The "flat" arm is the production path:
// OnlineTreeStrategy::serveShard over the FlatTreeView with the
// difference-counting accumulator. Both arms serve the identical
// object-bucketed request sequence, and the experiment asserts their
// edge loads, replication and invalidation counts are bit-identical
// before it compares wall clocks — the speedup is only meaningful if
// the engines agree.
//
// A second comparison covers the static layer: computeLoad over the
// aggregated ledger placement, legacy walk vs the flat view.
#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiments.h"
#include "hbn/core/flat_load.h"
#include "hbn/core/load.h"
#include "hbn/core/nibble.h"
#include "hbn/core/placement.h"
#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_strategy.h"
#include "hbn/net/generators.h"
#include "hbn/net/steiner.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"
#include "hbn/workload/generators.h"

namespace hbn::bench {
namespace {

/// The measured single-thread target; informational (each serving row's
/// `speedup` field shows whether it was met).
constexpr double kSpeedupTarget = 3.0;
/// The pass/fail gate (and CI trip-wire): a ratio this far below the
/// measured 3.4-3.5x means the engine collapsed, not that a shared
/// runner was noisy. Same-run ratios largely cancel machine speed, but
/// the gate still leaves headroom for co-tenant jitter.
constexpr double kCollapseBound = 2.0;

using dynamic::Request;

/// Replica of the seed engine's per-request load accounting (the state
/// this PR's batched engine replaced); kept verbatim so the old-vs-new
/// comparison stays honest across future PRs.
class SeedReferenceEngine {
 public:
  SeedReferenceEngine(const net::RootedTree& rooted, int numObjects,
                      net::NodeId initialLocation)
      : rooted_(&rooted),
        loads_(static_cast<std::size_t>(rooted.tree().edgeCount()), 0) {
    const auto n = static_cast<std::size_t>(rooted.tree().nodeCount());
    const auto e = static_cast<std::size_t>(rooted.tree().edgeCount());
    objects_.resize(static_cast<std::size_t>(numObjects));
    for (auto& state : objects_) {
      state.hasCopy.assign(n, 0);
      state.readCounter.assign(e, 0);
      state.hasCopy[static_cast<std::size_t>(initialLocation)] = 1;
      state.copyCount = 1;
    }
  }

  void serve(const Request& request) {
    ObjectState& state = objects_[static_cast<std::size_t>(request.object)];
    const net::NodeId origin = request.origin;
    const net::NodeId entry = entryPoint(state, origin);
    const auto edgeBetween = [&](net::NodeId a, net::NodeId b) {
      return rooted_->depth(a) > rooted_->depth(b) ? rooted_->parentEdge(a)
                                                   : rooted_->parentEdge(b);
    };
    if (!request.isWrite) {
      path_.clear();
      const net::NodeId a = rooted_->lca(entry, origin);
      for (net::NodeId x = entry; x != a; x = rooted_->parent(x)) {
        path_.push_back(x);
      }
      path_.push_back(a);
      const std::size_t downStart = path_.size();
      for (net::NodeId x = origin; x != a; x = rooted_->parent(x)) {
        path_.push_back(x);
      }
      std::reverse(path_.begin() + static_cast<std::ptrdiff_t>(downStart),
                   path_.end());
      for (std::size_t i = 1; i < path_.size(); ++i) {
        const net::EdgeId edge = edgeBetween(path_[i - 1], path_[i]);
        loads_.at(static_cast<std::size_t>(edge)) += 1;  // seed used .at()
        ++state.readCounter[static_cast<std::size_t>(edge)];
      }
      for (std::size_t i = 1; i < path_.size(); ++i) {
        const net::NodeId from = path_[i - 1];
        const net::NodeId to = path_[i];
        if (!state.hasCopy[static_cast<std::size_t>(from)]) break;
        if (state.hasCopy[static_cast<std::size_t>(to)]) continue;
        const net::EdgeId edge = edgeBetween(from, to);
        if (state.readCounter[static_cast<std::size_t>(edge)] <
            replicationThreshold_) {
          break;
        }
        loads_.at(static_cast<std::size_t>(edge)) += 1;
        state.hasCopy[static_cast<std::size_t>(to)] = 1;
        ++state.copyCount;
        ++replications_;
        state.readCounter[static_cast<std::size_t>(edge)] = 0;
      }
      return;
    }
    if (origin != entry) {
      const net::NodeId a = rooted_->lca(origin, entry);
      for (net::NodeId x = origin; x != a; x = rooted_->parent(x)) {
        loads_.at(static_cast<std::size_t>(rooted_->parentEdge(x))) += 1;
      }
      for (net::NodeId x = entry; x != a; x = rooted_->parent(x)) {
        loads_.at(static_cast<std::size_t>(rooted_->parentEdge(x))) += 1;
      }
    }
    if (state.copyCount > 1) {
      locations_.clear();
      for (net::NodeId v = 0; v < rooted_->tree().nodeCount(); ++v) {
        if (state.hasCopy[static_cast<std::size_t>(v)]) {
          locations_.push_back(v);
        }
      }
      const auto steiner = net::steinerEdges(*rooted_, locations_);
      for (const net::EdgeId e : steiner) {
        loads_.at(static_cast<std::size_t>(e)) += 1;
      }
      for (const net::NodeId v : locations_) {
        if (v != entry) {
          state.hasCopy[static_cast<std::size_t>(v)] = 0;
          ++invalidations_;
        }
      }
      state.copyCount = 1;
      std::fill(state.readCounter.begin(), state.readCounter.end(), 0);
    }
  }

  [[nodiscard]] const std::vector<core::Count>& loads() const noexcept {
    return loads_;
  }
  [[nodiscard]] core::Count replications() const noexcept {
    return replications_;
  }
  [[nodiscard]] core::Count invalidations() const noexcept {
    return invalidations_;
  }

 private:
  struct ObjectState {
    std::vector<char> hasCopy;
    std::vector<core::Count> readCounter;
    int copyCount = 0;
  };

  net::NodeId entryPoint(const ObjectState& state, net::NodeId v) {
    if (state.hasCopy[static_cast<std::size_t>(v)]) return v;
    const net::Tree& tree = rooted_->tree();
    const auto n = static_cast<std::size_t>(tree.nodeCount());
    if (seenStamp_.size() != n) {
      seenStamp_.assign(n, 0);
      stamp_ = 0;
    }
    const std::uint32_t stamp = ++stamp_;
    queue_.clear();
    queue_.push_back(v);
    seenStamp_[static_cast<std::size_t>(v)] = stamp;
    for (std::size_t head = 0; head < queue_.size(); ++head) {
      const net::NodeId u = queue_[head];
      if (state.hasCopy[static_cast<std::size_t>(u)]) return u;
      for (const net::HalfEdge& he : tree.neighbors(u)) {
        if (seenStamp_[static_cast<std::size_t>(he.to)] != stamp) {
          seenStamp_[static_cast<std::size_t>(he.to)] = stamp;
          queue_.push_back(he.to);
        }
      }
    }
    throw std::logic_error("SeedReferenceEngine: copy set empty");
  }

  const net::RootedTree* rooted_;
  core::Count replicationThreshold_ = 2;  // OnlineOptions default
  std::vector<ObjectState> objects_;
  std::vector<core::Count> loads_;
  core::Count replications_ = 0;
  core::Count invalidations_ = 0;
  std::vector<std::uint32_t> seenStamp_;
  std::uint32_t stamp_ = 0;
  std::vector<net::NodeId> queue_;
  std::vector<net::NodeId> path_;
  std::vector<net::NodeId> locations_;
};

class LoadEngineExperiment final : public engine::Experiment {
 public:
  LoadEngineExperiment(std::int64_t requests, std::int64_t objects)
      : requestsOverride_(requests), objectsOverride_(objects) {}

  [[nodiscard]] std::string_view name() const override {
    return "load-engine";
  }

  void run(engine::ExperimentContext& ctx,
           engine::BenchReporter& reporter) const override {
    const std::uint64_t seed = ctx.resolveSeed(13);
    const std::uint64_t requests =
        requestsOverride_ > 0
            ? static_cast<std::uint64_t>(requestsOverride_)
            : (ctx.smoke ? 400'000ULL : 2'000'000ULL);
    const int objects =
        objectsOverride_ > 0 ? static_cast<int>(objectsOverride_) : 1024;
    const int reps = 3;  // best-of; shields the ratio from scheduler noise

    // The e12 serving workload: skewed stream over the cluster network.
    const net::Tree tree = net::makeClusterNetwork(4, 8);
    const net::RootedTree rooted(tree, tree.defaultRoot());
    workload::StreamParams params;
    params.numObjects = objects;
    workload::SkewedStream stream(tree, params, seed);
    std::vector<Request> events;
    events.reserve(requests);
    for (std::uint64_t i = 0; i < requests; ++i) {
      events.push_back(stream.next());
    }
    ctx.os() << "E13 — batched difference-counting load engine vs the "
                "seed's per-request accounting\nseed="
             << seed << ", " << requests << " requests, objects=" << objects
             << ", tree n=" << tree.nodeCount() << "\n\n";

    // Bucket by object (stable), the layout both engines consume; the
    // serving layers do exactly this per epoch.
    std::vector<std::size_t> offsets(static_cast<std::size_t>(objects) + 1);
    std::vector<Request> bucketed(events.size());
    dynamic::bucketRequestsByObject(events, objects, offsets, bucketed);

    // --- Serving-path comparison -------------------------------------
    double legacyMs = 0.0;
    double flatMs = 0.0;
    core::Count legacyReplications = 0;
    core::Count flatReplications = 0;
    core::Count legacyInvalidations = 0;
    core::Count flatInvalidations = 0;
    bool identical = true;
    for (int rep = 0; rep < reps; ++rep) {
      SeedReferenceEngine legacy(rooted, objects, tree.processors().front());
      util::Timer legacyTimer;
      for (int x = 0; x < objects; ++x) {
        for (std::size_t i = offsets[static_cast<std::size_t>(x)];
             i < offsets[static_cast<std::size_t>(x) + 1]; ++i) {
          legacy.serve(bucketed[i]);
        }
      }
      const double lms = legacyTimer.millis();
      reporter.addTiming(lms);
      legacyMs = rep == 0 ? lms : std::min(legacyMs, lms);
      legacyReplications = legacy.replications();
      legacyInvalidations = legacy.invalidations();

      dynamic::OnlineTreeStrategy strategy(rooted, objects,
                                           tree.processors().front());
      core::LoadMap loads(tree.edgeCount());
      core::FlatLoadAccumulator acc(strategy.flatView());
      dynamic::ServeScratch scratch;
      core::Count replications = 0;
      core::Count invalidations = 0;
      util::Timer flatTimer;
      for (int x = 0; x < objects; ++x) {
        const std::size_t begin = offsets[static_cast<std::size_t>(x)];
        const std::size_t end = offsets[static_cast<std::size_t>(x) + 1];
        if (begin == end) continue;
        const dynamic::ShardStats stats = strategy.serveShard(
            x,
            std::span<const Request>(bucketed.data() + begin, end - begin),
            loads, scratch, &acc);
        replications += stats.replications;
        invalidations += stats.invalidations;
      }
      const double fms = flatTimer.millis();
      reporter.addTiming(fms);
      flatMs = rep == 0 ? fms : std::min(flatMs, fms);
      flatReplications = replications;
      flatInvalidations = invalidations;

      identical = identical && replications == legacy.replications() &&
                  invalidations == legacy.invalidations();
      for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
        identical = identical &&
                    loads.edgeLoad(e) ==
                        legacy.loads()[static_cast<std::size_t>(e)];
      }
    }
    const double servingSpeedup = flatMs > 0.0 ? legacyMs / flatMs : 0.0;

    // --- Static-layer comparison: computeLoad over the aggregated
    // ledger placement (nibble copy sets), legacy walk vs flat view. ---
    workload::Workload aggregated(objects, tree.nodeCount());
    for (const Request& ev : events) {
      if (ev.isWrite) {
        aggregated.addWrites(ev.object, ev.origin, 1);
      } else {
        aggregated.addReads(ev.object, ev.origin, 1);
      }
    }
    core::Placement placement;
    core::NibbleScratch nibbleScratch;
    for (workload::ObjectId x = 0; x < objects; ++x) {
      core::NibbleObjectResult result;
      core::nibbleObjectInto(tree, aggregated, x, nibbleScratch, result);
      placement.objects.push_back(std::move(result.placement));
    }
    double staticLegacyMs = 0.0;
    double staticFlatMs = 0.0;
    bool staticIdentical = true;
    const core::FlatTreeView flat(rooted);
    for (int rep = 0; rep < reps; ++rep) {
      util::Timer legacyTimer;
      core::LoadMap legacyLoads(tree.edgeCount());
      for (const core::ObjectPlacement& object : placement.objects) {
        core::accumulateObjectLoad(rooted, object, legacyLoads);
      }
      const double lms = legacyTimer.millis();
      staticLegacyMs = rep == 0 ? lms : std::min(staticLegacyMs, lms);

      util::Timer flatTimer;
      const core::LoadMap flatLoads = core::computeLoad(flat, placement);
      const double fms = flatTimer.millis();
      staticFlatMs = rep == 0 ? fms : std::min(staticFlatMs, fms);
      for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
        staticIdentical = staticIdentical &&
                          legacyLoads.edgeLoad(e) == flatLoads.edgeLoad(e);
      }
    }
    const double staticSpeedup =
        staticFlatMs > 0.0 ? staticLegacyMs / staticFlatMs : 0.0;

    util::Table table({"layer", "engine", "wall ms", "Mreq/s"});
    const auto mreqPerSec = [&](double wallMs) {
      return wallMs > 0.0
                 ? static_cast<double>(requests) / wallMs * 1e3 / 1e6
                 : 0.0;
    };
    table.addRow({"serving", "legacy-seed", util::formatDouble(legacyMs, 2),
                  util::formatDouble(mreqPerSec(legacyMs), 2)});
    table.addRow({"serving", "flat", util::formatDouble(flatMs, 2),
                  util::formatDouble(mreqPerSec(flatMs), 2)});
    table.addRow({"static", "legacy-walk",
                  util::formatDouble(staticLegacyMs, 3), "-"});
    table.addRow({"static", "flat", util::formatDouble(staticFlatMs, 3),
                  "-"});
    table.print(ctx.os());
    ctx.os() << "\nserving speedup " << util::formatDouble(servingSpeedup, 2)
             << "x (target >= " << util::formatDouble(kSpeedupTarget, 1)
             << "x, collapse gate >= "
             << util::formatDouble(kCollapseBound, 1)
             << "x), static speedup "
             << util::formatDouble(staticSpeedup, 2) << "x; engines "
             << (identical && staticIdentical ? "bit-identical"
                                              : "DIVERGED")
             << "\n";

    for (const auto& [engineName, wallMs, reps2, inv] :
         {std::tuple<const char*, double, core::Count, core::Count>{
              "legacy-seed", legacyMs, legacyReplications,
              legacyInvalidations},
          {"flat", flatMs, flatReplications, flatInvalidations}}) {
      reporter.beginRow();
      reporter.field("layer", "serving");
      reporter.field("engine", engineName);
      reporter.field("requests", static_cast<std::int64_t>(requests));
      reporter.field("objects", objects);
      reporter.field("wall_ms", wallMs);
      reporter.field("requests_per_sec",
                     wallMs > 0.0
                         ? static_cast<double>(requests) / wallMs * 1e3
                         : 0.0);
      reporter.field("replications", static_cast<std::int64_t>(reps2));
      reporter.field("invalidations", static_cast<std::int64_t>(inv));
      reporter.field("speedup", wallMs > 0.0 ? legacyMs / wallMs : 0.0);
    }
    for (const auto& [engineName, wallMs] :
         {std::pair<const char*, double>{"legacy-walk", staticLegacyMs},
          {"flat", staticFlatMs}}) {
      reporter.beginRow();
      reporter.field("layer", "static");
      reporter.field("engine", engineName);
      reporter.field("requests", static_cast<std::int64_t>(requests));
      reporter.field("objects", objects);
      reporter.field("wall_ms", wallMs);
    }

    reporter.check(
        "old and new engines are bit-identical (loads, replications, "
        "invalidations)",
        identical && staticIdentical);
    reporter.check(
        "no engine collapse (speedup stays >= 2x; the CI pass/fail gate, "
        "noise-tolerant)",
        servingSpeedup >= kCollapseBound, servingSpeedup);
  }

 private:
  std::int64_t requestsOverride_;
  std::int64_t objectsOverride_;
};

}  // namespace

namespace detail {
void registerLoadEngine(engine::ExperimentRegistry& registry) {
  registry.add(
      {"load-engine",
       "batched difference-counting load engine vs the seed's per-request "
       "path walks, on serving-style traffic",
       "E13 / section 1.1 (edge/bus load accounting)",
       "requests=N,objects=N"},
      [](engine::StrategyOptions& options) {
        const std::int64_t requests = options.getInt("requests", 0);
        const std::int64_t objects = options.getInt("objects", 0);
        return std::make_unique<LoadEngineExperiment>(requests, objects);
      },
      {"e13"});
}
}  // namespace detail

}  // namespace hbn::bench
