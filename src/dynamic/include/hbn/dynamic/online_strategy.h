// Dynamic (online) data management on trees — extension module.
//
// The paper's related work (§1.3) points to the dynamic tree strategy of
// [10], which achieves competitive ratio 3 for congestion on trees by
// maintaining, per object, a connected copy subtree that grows towards
// readers and shrinks on writes, steered by per-edge counters. The exact
// FOCS'97 pseudocode is not reproduced in this paper, so this module
// implements the canonical counter scheme it describes:
//
//   * the copy set of object x is always a connected subtree T(x);
//   * a READ from v is served by the copy at the entry point of v into
//     T(x) (load: the v→entry path). Every edge on that path accrues a
//     read counter; an edge adjacent to T(x) whose counter reaches the
//     replication threshold D gets the copy set extended across it
//     (load: +1 object migration on that edge), cascading towards v;
//   * a WRITE from v updates all copies (load: v→entry path plus the
//     Steiner tree of T(x), as in the static model) and then contracts
//     the copy set to the single entry-point node, resetting all counters
//     of x (writes invalidate remote replicas).
//
// With D = 1 this mirrors the classic replicate-on-read /
// invalidate-on-write policy whose tree competitiveness is O(1); the E-
// series harness measures the realised congestion ratio against the
// offline static optimum (extended-nibble / analytic LB on the aggregated
// frequencies).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "hbn/core/flat_load.h"
#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/util/bytes.h"
#include "hbn/workload/workload.h"

namespace hbn::dynamic {

using core::Count;
using workload::ObjectId;

/// Strategy knobs.
struct OnlineOptions {
  /// Reads across an edge needed before the copy set expands over it.
  Count replicationThreshold = 2;
  /// Whether writes contract the copy set to the writer-side entry node.
  bool contractOnWrite = true;
};

/// One online request (the workload layer's stream event).
using Request = workload::RequestEvent;

/// Replication/invalidation counts of one serveShard call.
struct ShardStats {
  Count replications = 0;
  Count invalidations = 0;
};

/// Reusable per-worker buffers for serveShard: origin-side and
/// anchor-side scratch for the fused entry-point/charging walk. One
/// instance per worker thread amortises every per-request allocation
/// away.
struct ServeScratch {
  std::vector<net::NodeId> upPath;
  std::vector<net::NodeId> descent;
  /// Shadow LoadMap the adaptive meta-policy scores member policies
  /// into (one member at a time, cleared between members); sized lazily
  /// to the tree's edge count on first use so policies that never
  /// shadow-serve pay nothing.
  core::LoadMap shadowLoads{0};
};

/// Executes requests online, maintaining per-object copy subtrees and
/// accumulating the exact communication load of services, updates and
/// migrations.
class OnlineTreeStrategy {
 public:
  /// Copies start on `initialLocation` (one copy per object); pass a
  /// processor, e.g. tree.processors().front().
  OnlineTreeStrategy(const net::RootedTree& rooted, int numObjects,
                     net::NodeId initialLocation,
                     const OnlineOptions& options = {});

  /// Serves one request, updating loads and the copy set.
  void serve(const Request& request);

  /// Shard-serving entry point for the epoch server: serves `requests`
  /// (each of which must target object `x`, in arrival order) against x's
  /// copy-subtree state, accumulating load into the caller's `loads`
  /// instead of the strategy-owned map. Calls for distinct objects touch
  /// disjoint state and only read the shared tree, so the epoch server
  /// may run them concurrently — one worker per object range, each with
  /// its own scratch and LoadMap.
  ///
  /// When `acc` is non-null and the shard is at least
  /// core::kFlatLoadCutover requests (the adaptive cutover — tiny shards
  /// stay on the per-edge walk), service and update paths are charged
  /// through the difference-counting accumulator and flushed into
  /// `loads` before returning. Either route produces bit-identical
  /// integer loads; `acc` must be per-worker, built over this strategy's
  /// flatView().
  ShardStats serveShard(ObjectId x, std::span<const Request> requests,
                        core::LoadMap& loads, ServeScratch& scratch,
                        core::FlatLoadAccumulator* acc = nullptr);

  /// Replaces x's copy set with `locations` (non-empty; must form a
  /// connected subtree, e.g. a nibble copy set) and resets x's read
  /// counters: the dynamic-to-static handoff of the epoch server's
  /// re-placement pass. Migration traffic is accounted by the caller.
  /// Per-object like serveShard, so safe to call concurrently for
  /// distinct objects.
  void resetCopySet(ObjectId x, std::span<const net::NodeId> locations);

  /// Loads accumulated so far (service + update + migration traffic).
  [[nodiscard]] const core::LoadMap& loads() const noexcept { return loads_; }

  /// The shared preorder flattening of the tree; per-worker
  /// FlatLoadAccumulators for serveShard are built over this view.
  [[nodiscard]] const core::FlatTreeView& flatView() const noexcept {
    return flat_;
  }

  /// Current copy locations of `x`, ascending.
  [[nodiscard]] std::vector<net::NodeId> copySet(ObjectId x) const;

  /// Appends the per-object counter state (anchor, copy locations in
  /// incremental order, nonzero read counters) to `out` as varints.
  /// restoreState on a freshly built strategy over the same topology
  /// reproduces bit-identical serving from that point on.
  void serializeState(util::ByteWriter& out) const;

  /// Restores state written by serializeState; throws
  /// std::invalid_argument on malformed bytes or out-of-range values.
  void restoreState(util::ByteReader& in);

  /// Total number of replications performed (copy-set extensions).
  [[nodiscard]] Count replications() const noexcept { return replications_; }
  /// Total number of copy deletions from write contractions.
  [[nodiscard]] Count invalidations() const noexcept {
    return invalidations_;
  }

 private:
  struct ObjectState {
    std::vector<char> hasCopy;        // per node
    std::vector<Count> readCounter;   // per edge
    /// Current copy locations, maintained incrementally (unordered) so
    /// write broadcasts and contractions never scan the node range.
    std::vector<net::NodeId> locations;
    /// Edges whose readCounter is nonzero — contraction resets only
    /// these instead of refilling the whole per-edge array.
    std::vector<net::EdgeId> countedEdges;
    /// A node guaranteed to hold a copy; the entry-point walk targets it.
    net::NodeId anchor = net::kInvalidNode;
    int copyCount = 0;
  };

  /// Entry point of `v` into the copy subtree of `state` (nearest copy):
  /// the copy set is connected, so its gate is the first copy node on
  /// the v→anchor path — found by a depth-equalising walk in O(path
  /// length), where the old BFS explored the whole ball around v.
  [[nodiscard]] net::NodeId entryPoint(const ObjectState& state,
                                       net::NodeId v,
                                       ServeScratch& scratch) const;

  /// Serves one request against `state`, charging `loads` and `stats`;
  /// `acc` non-null defers path charges through difference counting.
  void serveOne(ObjectState& state, const Request& request,
                core::LoadMap& loads, ShardStats& stats,
                ServeScratch& scratch,
                core::FlatLoadAccumulator* acc) const;

  const net::RootedTree* rooted_;
  core::FlatTreeView flat_;
  OnlineOptions options_;
  std::vector<ObjectState> objects_;
  core::LoadMap loads_;
  Count replications_ = 0;
  Count invalidations_ = 0;
  ServeScratch scratch_;  ///< backs the sequential serve() path
};

}  // namespace hbn::dynamic
