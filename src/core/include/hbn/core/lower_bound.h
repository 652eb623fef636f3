// Congestion lower bounds for the static placement problem.
//
// C_opt is NP-hard to compute (Theorem 2.1), so the approximation-ratio
// experiments report measured congestion divided by a certified lower
// bound. Two bounds are provided:
//
//   * The nibble bound: the nibble placement minimises the load on every
//     edge simultaneously among ALL placements, including leaf-only ones
//     (for each edge, min(h_A, h_B, κ_x) per object is unavoidable, and
//     both sides of every edge contain a potential storage leaf). Hence
//     the congestion of the nibble placement — evaluated with the bus
//     measure — lower-bounds C_opt.
//
//   * The per-edge analytic bound: Σ_x min(h_A(x), h_B(x), κ_x) per edge,
//     and the corresponding half-sums per bus. This equals the nibble
//     bound by Theorem 3.1 and is computed independently as a
//     cross-check (and without constructing placements, so it is cheap
//     enough for the biggest sweeps).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/workload/workload.h"

namespace hbn::core {

/// Lower-bound results.
struct LowerBound {
  /// Congestion lower bound (max over edges and buses of relative load).
  double congestion = 0.0;
  /// The underlying per-edge minimum loads.
  LoadMap edgeMinima;
};

/// Computes the analytic per-edge lower bound Σ_x min(h_A, h_B, κ_x).
/// O(|X| · |V|).
[[nodiscard]] LowerBound analyticLowerBound(const net::RootedTree& rooted,
                                            const workload::Workload& load);

/// Computes the nibble-placement lower bound by building the nibble
/// placement and evaluating it (O(|X| · |V| log |V|)); equal to the
/// analytic bound by Theorem 3.1.
[[nodiscard]] double nibbleLowerBound(const net::Tree& tree,
                                      const workload::Workload& load);

/// Per-object lower bound from the paper's τ_max analysis (§4, proof of
/// Theorem 4.3): for every object, ANY leaf-only placement either uses at
/// least two copies — then some unit-bandwidth leaf switch carries the
/// full write contention κ_x — or one copy on some leaf l, whose switch
/// carries all h_x − h_x(l) remote requests. Hence
///
///     C_opt >= max_x min(κ_x, h_x − max_l h_x(l)).
///
/// Requires the paper's bandwidth model (unit leaf switches,
/// tree.usesUnitLeafEdges()); returns 0 otherwise.
[[nodiscard]] double objectLowerBound(const net::Tree& tree,
                                      const workload::Workload& load);

/// max(analytic per-edge bound, per-object bound) — the bound the
/// 7-approximation experiments normalise by. Note the per-edge bound
/// alone can be a factor 7+ away from C_opt on fat-tree bandwidths, where
/// fast inner switches hide κ_max; the per-object bound restores the
/// paper's argument.
[[nodiscard]] double combinedLowerBound(const net::RootedTree& rooted,
                                        const workload::Workload& load);

/// Maintains the analytic per-edge bound Σ_x min(h_A, h_B, κ_x) under
/// per-object frequency updates. The bound is a sum of independent
/// per-object edge-minimum vectors, so when only object x's row
/// changes, `remove(x)` against the old row and `add(x)` against the
/// new one refresh the total in O(|V|) — the streaming engine uses this
/// to keep its per-epoch bound at O(touched · |V|) instead of
/// recomputing O(|X| · |V|) every epoch. All arithmetic is the same
/// integer Count math as analyticLowerBound, so congestion() is
/// bit-identical to a full recomputation at every point.
class IncrementalLowerBound {
 public:
  explicit IncrementalLowerBound(const net::RootedTree& rooted);

  /// Resets to the bound of `load` in one full O(|X| · |V|) pass.
  void rebuild(const workload::Workload& load);
  /// Subtracts object x's contribution, computed from its CURRENT row —
  /// call before mutating the row.
  void remove(workload::ObjectId x, const workload::Workload& load);
  /// Adds object x's contribution from its current row — call after
  /// mutating it.
  void add(workload::ObjectId x, const workload::Workload& load);
  /// Folds object x's share of one served epoch into `load` and the
  /// bound's change into `delta`: subtracts x's contribution computed
  /// from its current row, adds `events` (x's bucketed requests — every
  /// event's object is x) to row x, and adds the new row's contribution.
  /// Touches only row x, `delta` and `scratch` (|V| entries), so the
  /// serve workers absorb their own objects concurrently, each into its
  /// own |E| delta; mergeDelta() then folds the deltas in after the
  /// join. The serving engine calls this for x AFTER serving x — the
  /// ordering the HandoffPass row-stability contract depends on.
  void absorbObject(workload::ObjectId x,
                    std::span<const workload::RequestEvent> events,
                    workload::Workload& load, LoadMap& delta,
                    std::vector<Count>& scratch) const;
  /// Adds per-object changes collected by absorbObject. Integer sums, so
  /// any split of the objects over deltas gives the same bound.
  void mergeDelta(const LoadMap& delta);

  /// The congestion lower bound of the tracked workload.
  [[nodiscard]] double congestion() const;
  [[nodiscard]] const LoadMap& edgeMinima() const noexcept {
    return minima_;
  }

 private:
  /// Adds sign × x's edge minima (from its current row) into `into`.
  void apply(workload::ObjectId x, const workload::Workload& load,
             Count sign, LoadMap& into, std::vector<Count>& sub) const;

  const net::RootedTree* rooted_;
  LoadMap minima_;
  std::vector<Count> sub_;  ///< per-call subtree-sum scratch
};

}  // namespace hbn::core
