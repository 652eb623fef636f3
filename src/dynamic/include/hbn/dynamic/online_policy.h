// The unified online-policy engine.
//
// The paper's dynamic model (§4) and the FOCS'97 counter-based tree
// strategy it points to (§1.3) describe a *family* of online
// data-management policies. This header is the online twin of the
// offline strategy engine (hbn/engine/strategy.h):
//
//   PlacementStrategy : StrategyRegistry == OnlinePolicy : OnlinePolicyRegistry
//
// A policy owns the per-object copy configuration and serves
// object-bucketed request shards against it; every serving surface
// (EpochServer, the shard workers, hbn_serve, the e11/e14 benches)
// selects a policy by the same `name[:key=value,...]` spec grammar the
// strategy and experiment registries use (engine::splitSpec /
// engine::StrategyOptions — one parser, one error vocabulary).
//
// Built-in policies:
//   tree-counters     the FOCS'97 counter scheme (replicate towards
//                     readers, invalidate on writes) — wraps
//                     OnlineTreeStrategy; options threshold=D,contract=B
//   static            serve from a frozen placement recomputed only at
//                     §4 drift handoffs by any registered
//                     PlacementStrategy: `static:placement=<spec>`
//                     composes the two registries
//   full-replication  a copy on every processor; reads are local, every
//                     write broadcasts over the whole processor Steiner
//                     tree (lower-bound foil for write traffic)
//   owner-only        a single fixed copy, no replication — every
//                     request pays the path to the owner (upper-bound
//                     foil for read traffic)
//   adaptive          per-object meta-policy: scores member policies
//                     online by shadow-serving every shard through each
//                     of them and routes each object to the cheapest,
//                     hot-swapping at epoch boundaries through the §4
//                     handoff seam — `adaptive:members=<spec>+<spec>,
//                     window=<epochs>` (hbn/dynamic/adaptive_policy.h)
#pragma once

#include <map>
#include <memory>
#include <string>
#include <string_view>

#include "hbn/core/placement.h"
#include "hbn/dynamic/online_strategy.h"
#include "hbn/engine/registry.h"

namespace hbn::dynamic {

/// One in-flight §4 dynamic-to-static handoff: the re-placement a
/// policy computed (or will compute lazily) from a frozen snapshot of
/// the aggregated request frequencies, queried one object at a time.
///
/// This is the seam the pipelined epoch server migrates through: rather
/// than materialising the whole handoff placement inside the drift
/// epoch (the barrier-mode stop-the-world lump), the server keeps the
/// pass pending and asks for `target(x)` when object x is next touched.
/// Contract:
///   - target(x, w) is deterministic in x and independent of worker
///     count and call order — that is what keeps lazy (per-touch) and
///     barrier (drain-at-trigger) application bit-identical in
///     aggregate.
///   - Calls for distinct objects are safe concurrently; `worker`
///     selects the caller's scratch slot and must be < the `workers`
///     passed to beginHandoff.
///   - Snapshot stability is per ROW, not per matrix: the server only
///     queries target(x) while x's frequency row is still bit-equal to
///     its trigger-time value (x's worker task applies its passes, then
///     serves x, then aggregates x's requests into its row). A pass
///     that reads only row x at target() time — the nibble pass — may
///     therefore hold the server's live matrix with no copy at all; a
///     pass that reads other rows later must freeze its own copy inside
///     beginHandoff (other workers aggregate those rows concurrently).
class HandoffPass {
 public:
  virtual ~HandoffPass() = default;

  /// Migration target (copy locations) for object `x`.
  [[nodiscard]] virtual std::vector<net::NodeId> target(ObjectId x,
                                                        int worker) = 0;
};

/// Abstract online data-management policy: per-object copy
/// configuration plus shard serving. The serving contract mirrors
/// OnlineTreeStrategy::serveShard — calls for distinct objects touch
/// disjoint mutable state and only read shared immutable structure, so
/// the epoch server may run them concurrently (one worker per object
/// range, each with its own scratch, LoadMap, and accumulator) and the
/// merged result is bit-identical for 1 vs N threads.
class OnlinePolicy {
 public:
  virtual ~OnlinePolicy() = default;

  /// Canonical registry name (e.g. "tree-counters").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Canonical spec string that reconstructs this policy's configuration
  /// through the registry: `create(p.spec())` builds an equivalently
  /// configured policy, and rendering is a fixed point —
  /// `create(p.spec())->spec() == p.spec()` (checked for every
  /// registered policy by tests/policy_conformance_test.cpp). Policies
  /// render only non-default options, which keeps the spec minimal and,
  /// where possible, comma-free — the form composed specs (adaptive
  /// members, static placements) can embed.
  [[nodiscard]] virtual std::string spec() const {
    return std::string(name());
  }

  /// Serves `requests` (each targeting object `x`, in arrival order)
  /// against x's copy configuration, accumulating exact integer loads
  /// into the caller's `loads`. When `acc` is non-null, path charges
  /// may be batched through the difference-counting accumulator (built
  /// over this policy's flatView()); either route is bit-identical.
  virtual ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                                core::LoadMap& loads, ServeScratch& scratch,
                                core::FlatLoadAccumulator* acc = nullptr) = 0;

  /// Current copy locations of `x`, ascending.
  [[nodiscard]] virtual std::vector<net::NodeId> copySet(ObjectId x) const = 0;

  /// The shared preorder flattening of the tree; per-worker
  /// FlatLoadAccumulators are built over this view.
  [[nodiscard]] virtual const core::FlatTreeView& flatView()
      const noexcept = 0;

  /// Whether the §4 dynamic-to-static handoff applies: policies that
  /// own a movable copy configuration return true and must implement
  /// beginHandoff/resetCopySet; fixed-configuration policies
  /// (full-replication, owner-only) return false and the epoch server
  /// skips its drift pass entirely.
  [[nodiscard]] virtual bool migratable() const noexcept { return true; }

  /// Whether the policy itself is asking for a §4 handoff pass at the
  /// next epoch boundary, independent of the server's drift trigger.
  /// The epoch server polls this after every epoch (serve thread,
  /// workers joined) and begins a pass when it returns true — the seam
  /// a meta-policy (`adaptive`) uses to commit per-object routing
  /// switches it decided while serving. Only consulted when
  /// migratable(); the default never asks.
  [[nodiscard]] virtual bool wantsHandoff() const { return false; }

  /// Starts a §4 handoff against `aggregated` — the caller's matrix as
  /// of the trigger, shared without a copy. The caller guarantees only
  /// the per-row stability documented on HandoffPass: rows the pass
  /// will be asked about are unchanged at target() time. Passes that
  /// need more (whole-matrix reads after the trigger) copy their own
  /// snapshot here. `workers` bounds the scratch slots target() may be
  /// called with. Only called when migratable(): every migratable
  /// policy overrides it, and the base throws std::logic_error.
  [[nodiscard]] virtual std::unique_ptr<HandoffPass> beginHandoff(
      std::shared_ptr<const workload::Workload> aggregated, int workers);

  /// Replaces x's copy configuration with `locations` (the handoff
  /// migration; traffic is accounted by the caller). Per-object like
  /// serveShard, so safe to call concurrently for distinct objects.
  /// Only called when migratable().
  virtual void resetCopySet(ObjectId x,
                            std::span<const net::NodeId> locations) = 0;

  /// Diagnostics of the policy (configuration knobs, handoff counts,
  /// copy-node totals, ...) mirroring engine::Context::metrics; keys
  /// are "policy.<name>". Serving surfaces attach these to their
  /// reports so an emitted JSON file can say what produced it.
  [[nodiscard]] virtual std::map<std::string, double> metrics() const {
    return {};
  }

  /// Appends the policy's mutable serving state — copy sets, counters,
  /// scores, handoff bookkeeping — to `out` in the shared byte codec
  /// (hbn/util/bytes.h): the policy block of an epoch-boundary
  /// checkpoint (hbn/serve/checkpoint.h). The state opens with the
  /// policy's tag, so a block restored into the wrong kind of policy
  /// fails at once. Contract: restoreState on a FRESHLY
  /// built policy with an identical spec over the same topology
  /// reproduces bit-identical serving from the serialized point on
  /// (property-checked for every registered policy by
  /// tests/checkpoint_test.cpp). The policy must be quiescent — no
  /// in-flight HandoffPass — which the epoch server guarantees by
  /// draining all passes before checkpointing; a non-quiescent policy
  /// throws std::logic_error.
  virtual void serializeState(util::ByteWriter& out) const = 0;

  /// Restores state written by serializeState on an identically
  /// configured policy, reading exactly what serializeState wrote;
  /// throws std::invalid_argument on malformed, truncated, or
  /// out-of-range input.
  virtual void restoreState(util::ByteReader& in) = 0;
};

/// A parsed policy spec, ready to build per-server instances. Splitting
/// creation in two lets one spec build the several servers a
/// determinism digest or a bench sweep needs.
class OnlinePolicyFactory {
 public:
  virtual ~OnlinePolicyFactory() = default;

  /// Builds a policy over `rooted` (must outlive the policy) with one
  /// initial copy per object on `initialLocation`.
  [[nodiscard]] virtual std::unique_ptr<OnlinePolicy> build(
      const net::RootedTree& rooted, int numObjects,
      net::NodeId initialLocation) const = 0;
};

/// Registry metadata shown by --list-policies / usage text.
struct OnlinePolicyInfo {
  std::string name;         ///< canonical name
  std::string summary;      ///< one-line description
  std::string optionsHelp;  ///< "threshold=D,contract=B" style, may be empty
};

/// Name→factory registry for online policies; the online twin of
/// StrategyRegistry, sharing the SpecRegistry machinery, spec syntax,
/// and option parser.
class OnlinePolicyRegistry
    : public engine::SpecRegistry<OnlinePolicyFactory, OnlinePolicyInfo> {
 public:
  OnlinePolicyRegistry() : SpecRegistry("policy") {}

  /// The process-wide registry, pre-populated with every built-in
  /// policy.
  [[nodiscard]] static OnlinePolicyRegistry& global();

  /// Multi-line help text enumerating policies and their options.
  [[nodiscard]] std::string helpText() const;
};

/// Applies one handoff target to object `x`: compares the policy's
/// current copy set to `target` (both ascending, so equality is
/// positional), charges Steiner(current ∪ target) migration traffic
/// into `migration` through `acc` when they differ, and resets the copy
/// set either way (policies may commit bookkeeping in resetCopySet even
/// for a no-move target — e.g. adaptive flipping an object between
/// members whose copy sets coincide). This is the exact per-object §4
/// migration step; EpochServer's lazy application and the shard
/// worker's barrier application both route through it so their charged
/// traffic is bit-identical. Per-object like resetCopySet: safe to call
/// concurrently for distinct objects.
void applyHandoffTarget(OnlinePolicy& policy, ObjectId x,
                        std::span<const net::NodeId> target,
                        core::FlatLoadAccumulator& acc,
                        core::LoadMap& migration);

/// Renders OnlineOptions as the equivalent tree-counters spec
/// ("tree-counters:threshold=D,contract=0|1") — the bridge legacy
/// OnlineOptions call sites (CLI --threshold) use to reach the registry.
[[nodiscard]] std::string treeCountersSpec(const OnlineOptions& options);

namespace detail {
/// Implemented in online_policy.cpp; wires every built-in policy into
/// the registry that OnlinePolicyRegistry::global() hands out.
void registerBuiltinPolicies(OnlinePolicyRegistry& registry);
}  // namespace detail

}  // namespace hbn::dynamic
