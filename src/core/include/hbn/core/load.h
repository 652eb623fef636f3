// Load and congestion evaluation for hierarchical bus networks.
//
// Semantics (paper §1.1):
//   * each read served by copy c loads every edge on the origin→c path by 1,
//   * each write served by copy c loads the origin→c path by 1 AND every
//     edge of the Steiner tree spanning the object's copy locations by 1
//     (an edge lying on both is charged twice: update message + broadcast),
//   * the load of a bus is half the sum of its incident edge loads,
//   * relative load divides by bandwidth; congestion is the maximum
//     relative load over all edges and buses.
//
// All absolute loads are exact integers (Count); only relative loads are
// doubles.
#pragma once

#include <algorithm>
#include <cassert>
#include <span>
#include <vector>

#include "hbn/core/placement.h"
#include "hbn/net/rooted.h"

namespace hbn::core {

/// Absolute per-edge loads plus derived congestion queries.
class LoadMap {
 public:
  explicit LoadMap(int edgeCount)
      : edgeLoad_(static_cast<std::size_t>(edgeCount), 0) {}

  // Unchecked accesses (debug-build asserted): these sit inside the
  // per-request serving hot loop, where the bounds-checked .at() showed
  // up as measurable overhead. Edge ids come from RootedTree/FlatTreeView
  // tables, which are validated at construction.
  [[nodiscard]] Count edgeLoad(net::EdgeId e) const {
    assert(e >= 0 && static_cast<std::size_t>(e) < edgeLoad_.size());
    return edgeLoad_[static_cast<std::size_t>(e)];
  }
  [[nodiscard]] std::span<const Count> edgeLoads() const noexcept {
    return edgeLoad_;
  }
  void addEdgeLoad(net::EdgeId e, Count amount) {
    assert(e >= 0 && static_cast<std::size_t>(e) < edgeLoad_.size());
    edgeLoad_[static_cast<std::size_t>(e)] += amount;
  }
  /// Adds a per-edge load vector (one entry per edge) onto this map —
  /// the additive merge of per-worker and per-shard deltas.
  void addEdgeLoads(std::span<const Count> delta) {
    assert(delta.size() == edgeLoad_.size());
    for (std::size_t e = 0; e < delta.size(); ++e) edgeLoad_[e] += delta[e];
  }
  /// Zeroes every edge load, keeping the allocation (per-epoch worker
  /// maps in the serving engine are reused this way).
  void clear() noexcept { std::fill(edgeLoad_.begin(), edgeLoad_.end(), 0); }

  /// Bus load: half the sum of incident edge loads (exact, may be x.5).
  [[nodiscard]] double busLoad(const net::Tree& tree, net::NodeId bus) const;

  /// Max load/bandwidth over edges only.
  [[nodiscard]] double edgeCongestion(const net::Tree& tree) const;
  /// Max load/bandwidth over buses only.
  [[nodiscard]] double busCongestion(const net::Tree& tree) const;
  /// The paper's congestion: max over edges and buses.
  [[nodiscard]] double congestion(const net::Tree& tree) const;

  /// Sum over edges of load (total communication load; the quantity the
  /// paper's introduction contrasts congestion with).
  [[nodiscard]] Count totalLoad() const noexcept;

 private:
  std::vector<Count> edgeLoad_;
};

/// Evaluates the exact load of `placement` on `tree`.
/// `rooted` must be a rooted view of the same tree (used for LCA paths and
/// Steiner computation; the root choice does not affect the result).
[[nodiscard]] LoadMap computeLoad(const net::RootedTree& rooted,
                                  const Placement& placement);

/// Per-object variant; adds object `x`'s load contribution onto `loads`.
void accumulateObjectLoad(const net::RootedTree& rooted,
                          const ObjectPlacement& object, LoadMap& loads);

/// Convenience: congestion of `placement` on `tree`.
[[nodiscard]] double evaluateCongestion(const net::RootedTree& rooted,
                                        const Placement& placement);

}  // namespace hbn::core
