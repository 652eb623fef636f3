#include "hbn/dynamic/online_policy.h"

#include <algorithm>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "hbn/core/nibble.h"
#include "hbn/dynamic/adaptive_policy.h"
#include "hbn/net/steiner.h"

namespace hbn::dynamic {
namespace {

/// Legacy per-edge walk charging the u→v path: the non-accumulator
/// route of the frozen-placement policies, bit-identical to
/// FlatLoadAccumulator::chargePath + flush by integer associativity.
void chargePathWalk(const core::FlatTreeView& flat, net::NodeId u,
                    net::NodeId v, core::LoadMap& loads) {
  const core::FlatTreeView::NodeStep* su = &flat.step(u);
  const core::FlatTreeView::NodeStep* sv = &flat.step(v);
  while (su->depth > sv->depth) {
    loads.addEdgeLoad(su->parentEdge, 1);
    u = su->parent;
    su = &flat.step(u);
  }
  while (sv->depth > su->depth) {
    loads.addEdgeLoad(sv->parentEdge, 1);
    v = sv->parent;
    sv = &flat.step(v);
  }
  while (u != v) {
    loads.addEdgeLoad(su->parentEdge, 1);
    u = su->parent;
    su = &flat.step(u);
    loads.addEdgeLoad(sv->parentEdge, 1);
    v = sv->parent;
    sv = &flat.step(v);
  }
}

/// One frozen copy configuration: locations plus everything serving
/// needs precomputed — the per-node entry gate (nearest copy, found by
/// a deterministic multi-source BFS seeded in ascending copy order) and
/// the Steiner edge set write broadcasts charge. Copy sets here need
/// NOT be connected subtrees (extended-nibble maps copies to leaves),
/// which is why gates are a table instead of the counter strategy's
/// first-copy-on-the-anchor-path walk.
struct FrozenConfig {
  std::vector<net::NodeId> locations;  ///< sorted ascending
  std::vector<net::NodeId> gate;       ///< per node: entry copy
  std::vector<net::EdgeId> steinerEdges;

  void build(const net::RootedTree& rooted,
             std::span<const net::NodeId> copyLocations) {
    const net::Tree& tree = rooted.tree();
    locations.assign(copyLocations.begin(), copyLocations.end());
    std::sort(locations.begin(), locations.end());
    locations.erase(std::unique(locations.begin(), locations.end()),
                    locations.end());
    if (locations.empty()) {
      throw std::invalid_argument("FrozenConfig: empty copy set");
    }
    if (locations.front() < 0 || locations.back() >= tree.nodeCount()) {
      throw std::out_of_range("FrozenConfig: copy location");
    }
    gate.assign(static_cast<std::size_t>(tree.nodeCount()),
                net::kInvalidNode);
    std::deque<net::NodeId> queue;
    for (const net::NodeId c : locations) {
      gate[static_cast<std::size_t>(c)] = c;
      queue.push_back(c);
    }
    while (!queue.empty()) {
      const net::NodeId v = queue.front();
      queue.pop_front();
      for (const net::HalfEdge& half : tree.neighbors(v)) {
        if (gate[static_cast<std::size_t>(half.to)] == net::kInvalidNode) {
          gate[static_cast<std::size_t>(half.to)] =
              gate[static_cast<std::size_t>(v)];
          queue.push_back(half.to);
        }
      }
    }
    steinerEdges = net::steinerEdges(rooted, locations);
  }
};

/// Shared serving loop of the frozen-placement policies: a read charges
/// the origin→gate path, a write charges the path plus the copy set's
/// Steiner tree (the paper's static load model, §1.1). No counters
/// move, so per-object state is immutable between handoffs and shard
/// serving is trivially bit-identical for any worker count.
ShardStats serveFrozenShard(const FrozenConfig& config,
                            const core::FlatTreeView& flat, ObjectId x,
                            std::span<const Request> requests,
                            core::LoadMap& loads,
                            core::FlatLoadAccumulator* acc) {
  if (acc && requests.size() < core::kFlatLoadCutover) acc = nullptr;
  for (const Request& request : requests) {
    if (request.object != x) {
      throw std::invalid_argument("serveShard: request targets wrong object");
    }
    const net::NodeId origin = request.origin;
    const net::NodeId entry = config.gate[static_cast<std::size_t>(origin)];
    if (origin != entry) {
      if (acc) {
        acc->chargePath(origin, entry, 1);
      } else {
        chargePathWalk(flat, origin, entry, loads);
      }
    }
    if (request.isWrite) {
      for (const net::EdgeId e : config.steinerEdges) {
        loads.addEdgeLoad(e, 1);
      }
    }
  }
  if (acc) acc->flush(loads);
  return {};
}

ObjectId checkObjectId(ObjectId x, std::size_t numObjects,
                       const char* where) {
  if (x < 0 || static_cast<std::size_t>(x) >= numObjects) {
    throw std::out_of_range(std::string(where) + ": object id");
  }
  return x;
}

/// Reads and checks the tag every policy state starts with, so
/// restoring into the wrong policy type fails loudly instead of
/// misparsing.
void expectStateTag(util::ByteReader& in, std::string_view name) {
  if (in.block() != name) {
    throw std::invalid_argument("policy state: expected a '" +
                                std::string(name) + "' state");
  }
}

// ---------------------------------------------------------------------------
// Handoff passes — the per-object views of a §4 re-placement.
// ---------------------------------------------------------------------------

/// tree-counters pass: one O(|V|) nibbleObjectInto per queried object —
/// exactly the per-object kernel the registered "nibble" strategy runs
/// under its parallel executor, so lazy targets are bit-identical to
/// that strategy's placement row for the same snapshot, at per-touch
/// (not per-handoff) cost. The nibble placement is the counter scheme's
/// §4 target: its copy sets are connected (Theorem 3.1), so the counter
/// machinery resumes seamlessly.
class NibbleHandoffPass final : public HandoffPass {
 public:
  NibbleHandoffPass(const net::Tree& tree,
                    std::shared_ptr<const workload::Workload> aggregated,
                    int workers)
      : tree_(&tree),
        aggregated_(std::move(aggregated)),
        slots_(static_cast<std::size_t>(std::max(workers, 1))) {}

  [[nodiscard]] std::vector<net::NodeId> target(ObjectId x,
                                                int worker) override {
    if (worker < 0 || static_cast<std::size_t>(worker) >= slots_.size()) {
      throw std::out_of_range("HandoffPass::target: worker slot");
    }
    WorkerSlot& slot = slots_[static_cast<std::size_t>(worker)];
    core::nibbleObjectInto(*tree_, *aggregated_, x, slot.scratch,
                           slot.result);
    return slot.result.placement.locations();
  }

 private:
  struct WorkerSlot {
    core::NibbleScratch scratch;
    core::NibbleObjectResult result;
  };

  const net::Tree* tree_;
  std::shared_ptr<const workload::Workload> aggregated_;
  std::vector<WorkerSlot> slots_;
};

/// static-policy pass: the nested strategy is monolithic (it may
/// optimise across objects), so the full placement is memoised on the
/// first target() call — concurrent first-touchers rendezvous on the
/// std::once_flag and later queries are lookups. The lump moves off the
/// drift epoch onto the first post-handoff touch.
class MemoisedHandoffPass final : public HandoffPass {
 public:
  using Compute = std::function<core::Placement()>;

  explicit MemoisedHandoffPass(Compute compute)
      : compute_(std::move(compute)) {}

  [[nodiscard]] std::vector<net::NodeId> target(ObjectId x,
                                                int /*worker*/) override {
    std::call_once(once_, [this] { placement_ = compute_(); });
    checkObjectId(x, placement_.objects.size(), "HandoffPass::target");
    return placement_.objects[static_cast<std::size_t>(x)].locations();
  }

 private:
  Compute compute_;
  std::once_flag once_;
  core::Placement placement_;
};

// ---------------------------------------------------------------------------
// tree-counters — the FOCS'97 counter scheme, wrapping OnlineTreeStrategy.
// ---------------------------------------------------------------------------

class TreeCountersPolicy final : public OnlinePolicy {
 public:
  TreeCountersPolicy(const net::RootedTree& rooted, int numObjects,
                     net::NodeId initialLocation,
                     const OnlineOptions& options)
      : strategy_(rooted, numObjects, initialLocation, options),
        options_(options) {}

  [[nodiscard]] std::string_view name() const override {
    return "tree-counters";
  }

  [[nodiscard]] std::string spec() const override {
    // Minimal rendering: only non-default options, so the canonical
    // spec of a default-configured instance is comma-free and can be
    // embedded as an adaptive member.
    const OnlineOptions defaults;
    std::string out = "tree-counters";
    char sep = ':';
    if (options_.replicationThreshold != defaults.replicationThreshold) {
      out += sep;
      sep = ',';
      out += "threshold=";
      out += std::to_string(options_.replicationThreshold);
    }
    if (options_.contractOnWrite != defaults.contractOnWrite) {
      out += sep;
      sep = ',';
      out += "contract=";
      out += options_.contractOnWrite ? '1' : '0';
    }
    return out;
  }

  ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                        core::LoadMap& loads, ServeScratch& scratch,
                        core::FlatLoadAccumulator* acc) override {
    return strategy_.serveShard(x, requests, loads, scratch, acc);
  }

  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const override {
    return strategy_.copySet(x);
  }

  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept override {
    return strategy_.flatView();
  }

  [[nodiscard]] std::unique_ptr<HandoffPass> beginHandoff(
      std::shared_ptr<const workload::Workload> aggregated,
      int workers) override {
    ++handoffs_;
    return std::make_unique<NibbleHandoffPass>(
        strategy_.flatView().rooted().tree(), std::move(aggregated),
        workers);
  }

  void resetCopySet(ObjectId x,
                    std::span<const net::NodeId> locations) override {
    strategy_.resetCopySet(x, locations);
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"policy.threshold",
             static_cast<double>(options_.replicationThreshold)},
            {"policy.contractOnWrite", options_.contractOnWrite ? 1.0 : 0.0},
            {"policy.handoffs", static_cast<double>(handoffs_)}};
  }

  void serializeState(util::ByteWriter& out) const override {
    out.block("tree-counters");
    out.varint(handoffs_);
    strategy_.serializeState(out);
  }

  void restoreState(util::ByteReader& in) override {
    expectStateTag(in, "tree-counters");
    handoffs_ = in.varint();
    strategy_.restoreState(in);
  }

 private:
  OnlineTreeStrategy strategy_;
  OnlineOptions options_;
  std::uint64_t handoffs_ = 0;
};

// ---------------------------------------------------------------------------
// static — serve from a frozen placement, recomputed only at handoffs
// by a nested PlacementStrategy spec (composing the two registries).
// ---------------------------------------------------------------------------

class StaticPolicy final : public OnlinePolicy {
 public:
  StaticPolicy(const net::RootedTree& rooted, int numObjects,
               net::NodeId initialLocation,
               std::shared_ptr<const engine::PlacementStrategy> placement,
               std::string placementSpec)
      : rooted_(&rooted),
        flat_(rooted),
        placement_(std::move(placement)),
        placementSpec_(std::move(placementSpec)) {
    if (numObjects < 1) {
      throw std::invalid_argument("StaticPolicy: numObjects >= 1");
    }
    // Every object starts on the same single-copy configuration; share
    // one gate table instead of materialising numObjects copies of it
    // (a million-object trace would otherwise pay O(|X|·n) memory up
    // front). resetCopySet gives an object its own config on first
    // divergence — distinct slots, so the handoff pass stays safe to
    // run concurrently for distinct objects.
    auto initial = std::make_shared<FrozenConfig>();
    initial->build(rooted, std::span(&initialLocation, 1));
    objects_.assign(static_cast<std::size_t>(numObjects),
                    std::move(initial));
  }

  [[nodiscard]] std::string_view name() const override { return "static"; }

  [[nodiscard]] std::string spec() const override {
    if (placementSpec_ == "extended-nibble") return "static";
    return "static:placement=" + placementSpec_;
  }

  ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                        core::LoadMap& loads, ServeScratch& /*scratch*/,
                        core::FlatLoadAccumulator* acc) override {
    checkObjectId(x, objects_.size(), "serveShard");
    return serveFrozenShard(*objects_[static_cast<std::size_t>(x)], flat_,
                            x, requests, loads, acc);
  }

  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const override {
    checkObjectId(x, objects_.size(), "copySet");
    return objects_[static_cast<std::size_t>(x)]->locations;
  }

  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept override {
    return flat_;
  }

  [[nodiscard]] std::unique_ptr<HandoffPass> beginHandoff(
      std::shared_ptr<const workload::Workload> aggregated,
      int workers) override {
    ++handoffs_;
    // The memoised pass reads the WHOLE matrix at first-target time,
    // possibly epochs after the trigger — so it cannot lean on the
    // row-stability guarantee row-local passes get for free and must
    // freeze the frequencies now.
    auto frozen = std::make_shared<const workload::Workload>(*aggregated);
    return std::make_unique<MemoisedHandoffPass>(
        [this, frozen = std::move(frozen), workers] {
          engine::Context ctx;
          ctx.threads = workers;
          return placement_->place(rooted_->tree(), *frozen, ctx);
        });
  }

  void resetCopySet(ObjectId x,
                    std::span<const net::NodeId> locations) override {
    checkObjectId(x, objects_.size(), "resetCopySet");
    auto config = std::make_shared<FrozenConfig>();
    config->build(*rooted_, locations);
    objects_[static_cast<std::size_t>(x)] = std::move(config);
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    std::size_t copyNodes = 0;
    for (const auto& config : objects_) {
      copyNodes += config->locations.size();
    }
    return {{"policy.handoffs", static_cast<double>(handoffs_)},
            {"policy.copyNodes", static_cast<double>(copyNodes)}};
  }

  void serializeState(util::ByteWriter& out) const override {
    // FrozenConfig's gate table and Steiner edges are derived data; the
    // sorted location list alone reconstructs the config bit for bit.
    out.block("static");
    out.varint(handoffs_);
    out.varint(objects_.size());
    for (const auto& config : objects_) {
      out.varint(config->locations.size());
      for (const net::NodeId v : config->locations) {
        out.varint(static_cast<std::uint64_t>(v));
      }
    }
  }

  void restoreState(util::ByteReader& in) override {
    expectStateTag(in, "static");
    const auto fail = [](const std::string& why) {
      throw std::invalid_argument("static state: " + why);
    };
    handoffs_ = in.varint();
    const std::uint64_t count = in.varint();
    if (count != objects_.size()) fail("bad object count");
    const auto nodeCount =
        static_cast<std::uint64_t>(rooted_->tree().nodeCount());
    // Most objects typically share a configuration (everything starts
    // on one, and a monolithic handoff moves many objects to identical
    // sets); dedupe on the sorted location key so restore rebuilds each
    // distinct FrozenConfig (gate BFS + Steiner) once, not per object.
    std::map<std::vector<net::NodeId>, std::shared_ptr<const FrozenConfig>>
        configs;
    for (std::size_t x = 0; x < objects_.size(); ++x) {
      const std::uint64_t nLoc = in.varint();
      if (nLoc < 1 || nLoc > nodeCount) fail("copy count out of range");
      std::vector<net::NodeId> locations(static_cast<std::size_t>(nLoc));
      for (net::NodeId& v : locations) {
        const std::uint64_t location = in.varint();
        if (location >= nodeCount) fail("location out of range");
        v = static_cast<net::NodeId>(location);
      }
      auto [it, inserted] = configs.try_emplace(locations, nullptr);
      if (inserted) {
        auto config = std::make_shared<FrozenConfig>();
        config->build(*rooted_, locations);
        if (config->locations != it->first) {
          fail("locations not sorted/unique");
        }
        it->second = std::move(config);
      }
      objects_[x] = it->second;
    }
  }

 private:
  const net::RootedTree* rooted_;
  core::FlatTreeView flat_;
  std::shared_ptr<const engine::PlacementStrategy> placement_;
  std::string placementSpec_;
  std::vector<std::shared_ptr<const FrozenConfig>> objects_;
  std::uint64_t handoffs_ = 0;
};

// ---------------------------------------------------------------------------
// full-replication / owner-only — fixed configurations shared by every
// object (one FrozenConfig, not numObjects of them); not migratable.
// ---------------------------------------------------------------------------

class FixedConfigPolicy : public OnlinePolicy {
 public:
  FixedConfigPolicy(const net::RootedTree& rooted, int numObjects,
                    std::span<const net::NodeId> locations)
      : flat_(rooted), numObjects_(numObjects) {
    if (numObjects < 1) {
      throw std::invalid_argument("OnlinePolicy: numObjects >= 1");
    }
    config_.build(rooted, locations);
  }

  ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                        core::LoadMap& loads, ServeScratch& /*scratch*/,
                        core::FlatLoadAccumulator* acc) override {
    checkObjectId(x, static_cast<std::size_t>(numObjects_), "serveShard");
    return serveFrozenShard(config_, flat_, x, requests, loads, acc);
  }

  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const override {
    checkObjectId(x, static_cast<std::size_t>(numObjects_), "copySet");
    return config_.locations;
  }

  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept override {
    return flat_;
  }

  [[nodiscard]] bool migratable() const noexcept override { return false; }

  void resetCopySet(ObjectId, std::span<const net::NodeId>) override {
    throw std::logic_error(std::string(name()) + " does not migrate");
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"policy.copyNodes",
             static_cast<double>(config_.locations.size())}};
  }

  void serializeState(util::ByteWriter& out) const override {
    // The configuration is immutable and fully determined by the spec;
    // the state is a validation marker only.
    out.block("fixed");
    out.block(name());
  }

  void restoreState(util::ByteReader& in) override {
    expectStateTag(in, "fixed");
    const std::string_view stored = in.block();
    if (stored != name()) {
      throw std::invalid_argument(
          "fixed-config state: policy name mismatch (got '" +
          std::string(stored) + "', expected '" + std::string(name()) +
          "')");
    }
  }

 protected:
  core::FlatTreeView flat_;
  int numObjects_;
  FrozenConfig config_;
};

class FullReplicationPolicy final : public FixedConfigPolicy {
 public:
  FullReplicationPolicy(const net::RootedTree& rooted, int numObjects)
      : FixedConfigPolicy(rooted, numObjects,
                          rooted.tree().processors()) {}

  [[nodiscard]] std::string_view name() const override {
    return "full-replication";
  }
};

class OwnerOnlyPolicy final : public FixedConfigPolicy {
 public:
  OwnerOnlyPolicy(const net::RootedTree& rooted, int numObjects,
                  net::NodeId owner)
      : FixedConfigPolicy(rooted, numObjects, std::span(&owner, 1)),
        owner_(owner) {}

  [[nodiscard]] std::string_view name() const override {
    return "owner-only";
  }

  [[nodiscard]] std::map<std::string, double> metrics() const override {
    return {{"policy.copyNodes", 1.0},
            {"policy.owner", static_cast<double>(owner_)}};
  }

 private:
  net::NodeId owner_;
};

// ---------------------------------------------------------------------------
// Factory plumbing.
// ---------------------------------------------------------------------------

class LambdaPolicyFactory final : public OnlinePolicyFactory {
 public:
  using Fn = std::function<std::unique_ptr<OnlinePolicy>(
      const net::RootedTree&, int, net::NodeId)>;

  explicit LambdaPolicyFactory(Fn fn) : fn_(std::move(fn)) {}

  [[nodiscard]] std::unique_ptr<OnlinePolicy> build(
      const net::RootedTree& rooted, int numObjects,
      net::NodeId initialLocation) const override {
    return fn_(rooted, numObjects, initialLocation);
  }

 private:
  Fn fn_;
};

std::unique_ptr<OnlinePolicyFactory> makeFactory(LambdaPolicyFactory::Fn fn) {
  return std::make_unique<LambdaPolicyFactory>(std::move(fn));
}

}  // namespace

std::unique_ptr<HandoffPass> OnlinePolicy::beginHandoff(
    std::shared_ptr<const workload::Workload>, int) {
  throw std::logic_error(std::string(name()) + " does not migrate");
}

void applyHandoffTarget(OnlinePolicy& policy, ObjectId x,
                        std::span<const net::NodeId> target,
                        core::FlatLoadAccumulator& acc,
                        core::LoadMap& migration) {
  std::vector<net::NodeId> terminals = policy.copySet(x);
  // A target that leaves x where it is moves no data — skip the Steiner
  // charge (both sets are ascending, so equality is positional) but
  // still resetCopySet for the policy's bookkeeping.
  if (terminals.size() == target.size() &&
      std::equal(terminals.begin(), terminals.end(), target.begin())) {
    policy.resetCopySet(x, target);
    return;
  }
  terminals.insert(terminals.end(), target.begin(), target.end());
  acc.chargeSteiner(terminals, 1, migration);
  policy.resetCopySet(x, target);
}

OnlinePolicyRegistry& OnlinePolicyRegistry::global() {
  static OnlinePolicyRegistry* registry = [] {
    auto* r = new OnlinePolicyRegistry();
    detail::registerBuiltinPolicies(*r);
    return r;
  }();
  return *registry;
}

std::string OnlinePolicyRegistry::helpText() const {
  return engine::formatSpecHelp(list());
}

namespace detail {

void registerBuiltinPolicies(OnlinePolicyRegistry& registry) {
  registry.add(
      {"tree-counters",
       "FOCS'97 counter scheme: copy subtrees grow towards readers and "
       "contract on writes, steered by per-edge read counters",
       "threshold=D,contract=0|1"},
      [](engine::StrategyOptions& options) {
        OnlineOptions opts;
        opts.replicationThreshold =
            options.getInt("threshold", opts.replicationThreshold);
        opts.contractOnWrite =
            options.getBool("contract", opts.contractOnWrite);
        return makeFactory([opts](const net::RootedTree& rooted,
                                  int numObjects,
                                  net::NodeId initialLocation) {
          return std::make_unique<TreeCountersPolicy>(
              rooted, numObjects, initialLocation, opts);
        });
      },
      {"counters"});

  registry.add(
      {"static",
       "serve from a frozen placement recomputed only at drift handoffs "
       "by the nested strategy spec (default extended-nibble)",
       "placement=SPEC"},
      [](engine::StrategyOptions& options) {
        std::string spec = options.getString("placement", "extended-nibble");
        // Resolve the nested spec NOW so a typo fails at --policy parse
        // time, not at the first drift handoff mid-serve. The strategy
        // is stateless and const, so the servers a factory builds can
        // share one instance.
        std::shared_ptr<const engine::PlacementStrategy> placement =
            engine::StrategyRegistry::global().create(spec);
        return makeFactory([placement = std::move(placement),
                            spec = std::move(spec)](
                               const net::RootedTree& rooted, int numObjects,
                               net::NodeId initialLocation) {
          return std::make_unique<StaticPolicy>(
              rooted, numObjects, initialLocation, placement, spec);
        });
      },
      {"frozen"});

  registry.add(
      {"full-replication",
       "a copy on every processor: reads are local, every write "
       "broadcasts over the whole processor Steiner tree",
       ""},
      [](engine::StrategyOptions&) {
        return makeFactory([](const net::RootedTree& rooted, int numObjects,
                              net::NodeId /*initialLocation*/) {
          return std::make_unique<FullReplicationPolicy>(rooted, numObjects);
        });
      });

  registry.add(
      {"owner-only",
       "a single fixed copy per object, no replication: every request "
       "pays the path to the owner",
       ""},
      [](engine::StrategyOptions&) {
        return makeFactory([](const net::RootedTree& rooted, int numObjects,
                              net::NodeId initialLocation) {
          return std::make_unique<OwnerOnlyPolicy>(rooted, numObjects,
                                                   initialLocation);
        });
      });

  registerAdaptivePolicy(registry);
}

}  // namespace detail
}  // namespace hbn::dynamic
