#include "hbn/core/lower_bound.h"

#include <algorithm>
#include <span>

#include "hbn/core/nibble.h"

namespace hbn::core {

LowerBound analyticLowerBound(const net::RootedTree& rooted,
                              const workload::Workload& load) {
  const net::Tree& tree = rooted.tree();
  LowerBound result{0.0, LoadMap(tree.edgeCount())};

  // For every object, accumulate subtree request sums bottom-up; the edge
  // above v separates h(T(v)) (= subtree side) from h_x - h(T(v)).
  const auto order = rooted.preorder();
  std::vector<Count> sub(static_cast<std::size_t>(tree.nodeCount()), 0);
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    const Count hx = load.objectTotal(x);
    if (hx == 0) continue;
    const Count kappa = load.objectWrites(x);
    for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
      sub[static_cast<std::size_t>(v)] = load.total(x, v);
    }
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const net::NodeId v = *it;
      const net::NodeId p = rooted.parent(v);
      if (p != net::kInvalidNode) {
        sub[static_cast<std::size_t>(p)] += sub[static_cast<std::size_t>(v)];
      }
    }
    for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
      const net::NodeId p = rooted.parent(v);
      if (p == net::kInvalidNode) continue;
      const Count below = sub[static_cast<std::size_t>(v)];
      const Count above = hx - below;
      const Count minLoad = std::min({below, above, kappa});
      if (minLoad > 0) {
        result.edgeMinima.addEdgeLoad(rooted.parentEdge(v), minLoad);
      }
    }
  }
  result.congestion = result.edgeMinima.congestion(tree);
  return result;
}

IncrementalLowerBound::IncrementalLowerBound(const net::RootedTree& rooted)
    : rooted_(&rooted),
      minima_(rooted.tree().edgeCount()),
      sub_(static_cast<std::size_t>(rooted.tree().nodeCount()), 0) {}

void IncrementalLowerBound::rebuild(const workload::Workload& load) {
  minima_.clear();
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    apply(x, load, 1, minima_, sub_);
  }
}

void IncrementalLowerBound::remove(workload::ObjectId x,
                                   const workload::Workload& load) {
  apply(x, load, -1, minima_, sub_);
}

void IncrementalLowerBound::add(workload::ObjectId x,
                                const workload::Workload& load) {
  apply(x, load, 1, minima_, sub_);
}

void IncrementalLowerBound::absorbObject(
    workload::ObjectId x, std::span<const workload::RequestEvent> events,
    workload::Workload& load, LoadMap& delta,
    std::vector<Count>& scratch) const {
  scratch.resize(sub_.size());
  apply(x, load, -1, delta, scratch);
  for (const workload::RequestEvent& ev : events) {
    if (ev.isWrite) {
      load.addWrites(x, ev.origin, 1);
    } else {
      load.addReads(x, ev.origin, 1);
    }
  }
  apply(x, load, 1, delta, scratch);
}

void IncrementalLowerBound::mergeDelta(const LoadMap& delta) {
  minima_.addEdgeLoads(delta.edgeLoads());
}

double IncrementalLowerBound::congestion() const {
  return minima_.congestion(rooted_->tree());
}

void IncrementalLowerBound::apply(workload::ObjectId x,
                                  const workload::Workload& load, Count sign,
                                  LoadMap& into,
                                  std::vector<Count>& sub) const {
  // Per-object body of analyticLowerBound, signed: identical subtree
  // sums, identical min() operands, so add-after-remove reproduces the
  // full recomputation bit for bit.
  const net::Tree& tree = rooted_->tree();
  const Count hx = load.objectTotal(x);
  if (hx == 0) return;
  const Count kappa = load.objectWrites(x);
  for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
    sub[static_cast<std::size_t>(v)] = load.total(x, v);
  }
  const std::span<const net::NodeId> order = rooted_->preorder();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const net::NodeId v = *it;
    const net::NodeId p = rooted_->parent(v);
    if (p != net::kInvalidNode) {
      sub[static_cast<std::size_t>(p)] += sub[static_cast<std::size_t>(v)];
    }
  }
  for (net::NodeId v = 0; v < tree.nodeCount(); ++v) {
    const net::NodeId p = rooted_->parent(v);
    if (p == net::kInvalidNode) continue;
    const Count below = sub[static_cast<std::size_t>(v)];
    const Count above = hx - below;
    const Count minLoad = std::min({below, above, kappa});
    if (minLoad > 0) {
      into.addEdgeLoad(rooted_->parentEdge(v), sign * minLoad);
    }
  }
}

double nibbleLowerBound(const net::Tree& tree,
                        const workload::Workload& load) {
  const net::RootedTree rooted(tree, tree.defaultRoot());
  return evaluateCongestion(rooted, nibblePlacement(tree, load));
}

double objectLowerBound(const net::Tree& tree,
                        const workload::Workload& load) {
  if (!tree.usesUnitLeafEdges()) return 0.0;
  Count best = 0;
  for (workload::ObjectId x = 0; x < load.numObjects(); ++x) {
    const Count hx = load.objectTotal(x);
    if (hx == 0) continue;
    Count maxLeaf = 0;
    for (const net::NodeId p : tree.processors()) {
      maxLeaf = std::max(maxLeaf, load.total(x, p));
    }
    best = std::max(best, std::min(load.objectWrites(x), hx - maxLeaf));
  }
  return static_cast<double>(best);
}

double combinedLowerBound(const net::RootedTree& rooted,
                          const workload::Workload& load) {
  return std::max(analyticLowerBound(rooted, load).congestion,
                  objectLowerBound(rooted.tree(), load));
}

}  // namespace hbn::core
