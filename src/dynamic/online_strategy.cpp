#include "hbn/dynamic/online_strategy.h"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "hbn/net/steiner.h"

namespace hbn::dynamic {

OnlineTreeStrategy::OnlineTreeStrategy(const net::RootedTree& rooted,
                                       int numObjects,
                                       net::NodeId initialLocation,
                                       const OnlineOptions& options)
    : rooted_(&rooted),
      flat_(rooted),
      options_(options),
      loads_(rooted.tree().edgeCount()) {
  if (numObjects < 1) {
    throw std::invalid_argument("OnlineTreeStrategy: numObjects >= 1");
  }
  if (options.replicationThreshold < 1) {
    throw std::invalid_argument(
        "OnlineTreeStrategy: replicationThreshold >= 1");
  }
  const auto n = static_cast<std::size_t>(rooted.tree().nodeCount());
  const auto e = static_cast<std::size_t>(rooted.tree().edgeCount());
  if (initialLocation < 0 ||
      initialLocation >= rooted.tree().nodeCount()) {
    throw std::out_of_range("OnlineTreeStrategy: initial location");
  }
  objects_.resize(static_cast<std::size_t>(numObjects));
  for (auto& state : objects_) {
    state.hasCopy.assign(n, 0);
    state.readCounter.assign(e, 0);
    state.hasCopy[static_cast<std::size_t>(initialLocation)] = 1;
    state.locations.assign(1, initialLocation);
    state.anchor = initialLocation;
    state.copyCount = 1;
  }
}

net::NodeId OnlineTreeStrategy::entryPoint(const ObjectState& state,
                                           net::NodeId v,
                                           ServeScratch& scratch) const {
  // The copy set is a connected subtree, so its gate (unique nearest copy
  // node to v) lies on every path from v into the set — in particular on
  // the v→anchor path. Walk that path in order and return the first copy
  // node: O(path length), where the old BFS paid the whole ball around v.
  if (state.hasCopy[static_cast<std::size_t>(v)]) return v;
  net::NodeId a = v;
  net::NodeId b = state.anchor;
  const core::FlatTreeView::NodeStep* sa = &flat_.step(a);
  const core::FlatTreeView::NodeStep* sb = &flat_.step(b);
  scratch.descent.clear();
  while (sa->depth > sb->depth) {
    a = sa->parent;
    sa = &flat_.step(a);
    if (state.hasCopy[static_cast<std::size_t>(a)]) return a;
  }
  while (sb->depth > sa->depth) {
    scratch.descent.push_back(b);
    b = sb->parent;
    sb = &flat_.step(b);
  }
  while (a != b) {
    a = sa->parent;
    sa = &flat_.step(a);
    if (state.hasCopy[static_cast<std::size_t>(a)]) return a;
    scratch.descent.push_back(b);
    b = sb->parent;
    sb = &flat_.step(b);
  }
  for (auto it = scratch.descent.rbegin(); it != scratch.descent.rend();
       ++it) {
    if (state.hasCopy[static_cast<std::size_t>(*it)]) return *it;
  }
  throw std::logic_error("entryPoint: copy set empty");
}

void OnlineTreeStrategy::serveOne(ObjectState& state, const Request& request,
                                  core::LoadMap& loads, ShardStats& stats,
                                  ServeScratch& scratch,
                                  core::FlatLoadAccumulator* acc) const {
  const net::NodeId origin = request.origin;

  if (!request.isWrite) {
    if (state.hasCopy[static_cast<std::size_t>(origin)]) {
      return;  // local read: free, no counters move
    }
    // One fused walk finds the entry point AND charges the service path:
    // the copy subtree's gate is the first copy node on the origin→anchor
    // path, so walking that path in order — charging each crossed edge
    // and stopping at the first copy — touches exactly the origin→entry
    // edges. No LCA query, no separate entry-point pre-walk, no node
    // list: a two-pointer depth-equalising ascent with the origin-side
    // nodes kept for the cascade and the anchor side collected for the
    // in-order descent scan.
    // An edge re-entered after a cascade reset is pushed again, so the
    // list may hold duplicates; they are bounded by the replication
    // count (≤ n-1 per object between contractions, which clear the
    // list), and contraction's zeroing is idempotent.
    const auto bump = [&](net::EdgeId edge) {
      loads.addEdgeLoad(edge, 1);
      if (state.readCounter[static_cast<std::size_t>(edge)] == 0) {
        state.countedEdges.push_back(edge);
      }
      ++state.readCounter[static_cast<std::size_t>(edge)];
    };
    // Extends the copy set across `edge` into `to` if the threshold
    // fired; false ends the cascade.
    const auto cascade = [&](net::NodeId to, net::EdgeId edge) {
      if (state.hasCopy[static_cast<std::size_t>(to)]) return true;
      if (state.readCounter[static_cast<std::size_t>(edge)] <
          options_.replicationThreshold) {
        return false;
      }
      // Replicate across: one object migration message.
      loads.addEdgeLoad(edge, 1);
      state.hasCopy[static_cast<std::size_t>(to)] = 1;
      state.locations.push_back(to);
      ++state.copyCount;
      ++stats.replications;
      state.readCounter[static_cast<std::size_t>(edge)] = 0;
      return true;
    };

    scratch.upPath.clear();    // origin-side nodes below the entry/lca
    scratch.descent.clear();   // anchor-side nodes, anchor first
    net::NodeId u = origin;
    net::NodeId b = state.anchor;
    const core::FlatTreeView::NodeStep* su = &flat_.step(u);
    const core::FlatTreeView::NodeStep* sb = &flat_.step(b);
    net::NodeId entry = net::kInvalidNode;
    while (su->depth > sb->depth) {
      bump(su->parentEdge);
      scratch.upPath.push_back(u);
      u = su->parent;
      su = &flat_.step(u);
      if (state.hasCopy[static_cast<std::size_t>(u)]) {
        entry = u;
        break;
      }
    }
    if (entry == net::kInvalidNode) {
      while (sb->depth > su->depth) {
        scratch.descent.push_back(b);
        b = sb->parent;
        sb = &flat_.step(b);
      }
      while (u != b) {
        bump(su->parentEdge);
        scratch.upPath.push_back(u);
        u = su->parent;
        su = &flat_.step(u);
        if (state.hasCopy[static_cast<std::size_t>(u)]) {
          entry = u;
          break;
        }
        scratch.descent.push_back(b);
        b = sb->parent;
        sb = &flat_.step(b);
      }
    }
    if (entry == net::kInvalidNode) {
      // No copy through the lca (== u): continue down toward the anchor,
      // in path order; the anchor itself holds a copy, so this finds the
      // entry. Then cascade back up entry→lca via parent pointers.
      const net::NodeId meet = u;
      for (std::size_t j = scratch.descent.size(); j-- > 0;) {
        const net::NodeId x = scratch.descent[j];
        bump(flat_.step(x).parentEdge);
        if (state.hasCopy[static_cast<std::size_t>(x)]) {
          entry = x;
          break;
        }
      }
      if (entry == net::kInvalidNode) {
        throw std::logic_error("serveOne: copy set empty");
      }
      net::NodeId from = entry;
      while (from != meet) {
        const core::FlatTreeView::NodeStep& sf = flat_.step(from);
        if (!cascade(sf.parent, sf.parentEdge)) return;
        from = sf.parent;
      }
    }
    // Descend the origin side from just below the entry/lca back to the
    // reader, extending the copy set while the thresholds hold.
    for (auto it = scratch.upPath.rbegin(); it != scratch.upPath.rend();
         ++it) {
      if (!cascade(*it, flat_.step(*it).parentEdge)) return;
    }
    return;
  }

  const net::NodeId entry = entryPoint(state, origin, scratch);

  // WRITE: origin→entry path plus broadcast over the copy subtree. No
  // counters move, so the path charge needs no walk at all when batched.
  if (origin != entry) {
    if (acc) {
      acc->chargePath(origin, entry, 1);
    } else {
      const net::NodeId a = flat_.lca(origin, entry);
      for (net::NodeId x = origin; x != a; x = rooted_->parent(x)) {
        loads.addEdgeLoad(rooted_->parentEdge(x), 1);
      }
      for (net::NodeId x = entry; x != a; x = rooted_->parent(x)) {
        loads.addEdgeLoad(rooted_->parentEdge(x), 1);
      }
    }
  }
  if (state.copyCount > 1) {
    // The copy set is a connected subtree (class invariant), so its
    // Steiner tree is the set itself: exactly the parent edges of copies
    // whose parent also holds a copy — O(|copies|), no counting passes,
    // where the seed engine ran an O(n) location scan plus a
    // vector-allocating steinerEdges call per write.
    for (const net::NodeId v : state.locations) {
      const net::NodeId p = rooted_->parent(v);
      if (p != net::kInvalidNode &&
          state.hasCopy[static_cast<std::size_t>(p)]) {
        loads.addEdgeLoad(rooted_->parentEdge(v), 1);
      }
    }
    if (options_.contractOnWrite) {
      // Invalidate every replica except the writer-side entry copy.
      for (const net::NodeId v : state.locations) {
        if (v != entry) {
          state.hasCopy[static_cast<std::size_t>(v)] = 0;
          ++stats.invalidations;
        }
      }
      state.locations.assign(1, entry);
      state.anchor = entry;
      state.copyCount = 1;
      for (const net::EdgeId e : state.countedEdges) {
        state.readCounter[static_cast<std::size_t>(e)] = 0;
      }
      state.countedEdges.clear();
    }
  }
}

void OnlineTreeStrategy::serve(const Request& request) {
  if (request.object < 0 ||
      request.object >= static_cast<ObjectId>(objects_.size())) {
    throw std::out_of_range("serve: object id");
  }
  ObjectState& state = objects_[static_cast<std::size_t>(request.object)];
  ShardStats stats;
  serveOne(state, request, loads_, stats, scratch_, nullptr);
  replications_ += stats.replications;
  invalidations_ += stats.invalidations;
}

ShardStats OnlineTreeStrategy::serveShard(ObjectId x,
                                          std::span<const Request> requests,
                                          core::LoadMap& loads,
                                          ServeScratch& scratch,
                                          core::FlatLoadAccumulator* acc) {
  if (x < 0 || x >= static_cast<ObjectId>(objects_.size())) {
    throw std::out_of_range("serveShard: object id");
  }
  // Adaptive cutover: a tiny shard's flush bookkeeping outweighs the few
  // per-edge walks it would save, so it stays on the legacy route.
  if (acc && requests.size() < core::kFlatLoadCutover) acc = nullptr;
  ObjectState& state = objects_[static_cast<std::size_t>(x)];
  ShardStats stats;
  for (const Request& request : requests) {
    if (request.object != x) {
      throw std::invalid_argument("serveShard: request targets wrong object");
    }
    serveOne(state, request, loads, stats, scratch, acc);
  }
  if (acc) acc->flush(loads);
  return stats;
}

void OnlineTreeStrategy::resetCopySet(ObjectId x,
                                      std::span<const net::NodeId> locations) {
  if (x < 0 || x >= static_cast<ObjectId>(objects_.size())) {
    throw std::out_of_range("resetCopySet: object id");
  }
  if (locations.empty()) {
    throw std::invalid_argument("resetCopySet: empty copy set");
  }
  ObjectState& state = objects_[static_cast<std::size_t>(x)];
  for (const net::NodeId v : state.locations) {
    state.hasCopy[static_cast<std::size_t>(v)] = 0;
  }
  state.locations.clear();
  state.copyCount = 0;
  for (const net::NodeId v : locations) {
    if (v < 0 || v >= rooted_->tree().nodeCount()) {
      throw std::out_of_range("resetCopySet: location");
    }
    if (!state.hasCopy[static_cast<std::size_t>(v)]) {
      state.hasCopy[static_cast<std::size_t>(v)] = 1;
      state.locations.push_back(v);
      ++state.copyCount;
    }
  }
  state.anchor = state.locations.front();
  for (const net::EdgeId e : state.countedEdges) {
    state.readCounter[static_cast<std::size_t>(e)] = 0;
  }
  state.countedEdges.clear();
}

void OnlineTreeStrategy::serializeState(util::ByteWriter& out) const {
  // Per object: the anchor, the locations in their incremental
  // (insertion) order so the restored vector is positionally
  // identical, then the nonzero read counters as (edge, count) pairs.
  // countedEdges may hold duplicates and already-reset edges in a live
  // strategy; writing the deduplicated nonzero set restores identical
  // counter VALUES, and contraction's zeroing is idempotent over either
  // list.
  out.varint(objects_.size());
  for (const ObjectState& state : objects_) {
    out.varint(static_cast<std::uint64_t>(state.anchor));
    out.varint(state.locations.size());
    for (const net::NodeId v : state.locations) {
      out.varint(static_cast<std::uint64_t>(v));
    }
    std::uint64_t counted = 0;
    for (const Count value : state.readCounter) {
      if (value != 0) ++counted;
    }
    out.varint(counted);
    for (std::size_t e = 0; e < state.readCounter.size(); ++e) {
      if (state.readCounter[e] != 0) {
        out.varint(e);
        out.varint(static_cast<std::uint64_t>(state.readCounter[e]));
      }
    }
  }
}

void OnlineTreeStrategy::restoreState(util::ByteReader& in) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("tree-counters state: " + why);
  };
  if (in.varint() != objects_.size()) fail("bad object count");
  const net::Tree& tree = rooted_->tree();
  const auto nodeCount = static_cast<std::uint64_t>(tree.nodeCount());
  const auto edgeCount = static_cast<std::uint64_t>(tree.edgeCount());
  constexpr auto kMaxCount =
      static_cast<std::uint64_t>(std::numeric_limits<Count>::max());
  for (ObjectState& state : objects_) {
    const std::uint64_t anchor = in.varint();
    const std::uint64_t nLoc = in.varint();
    if (nLoc < 1 || nLoc > nodeCount) fail("copy count out of range");
    for (const net::NodeId v : state.locations) {
      state.hasCopy[static_cast<std::size_t>(v)] = 0;
    }
    state.locations.clear();
    for (std::uint64_t j = 0; j < nLoc; ++j) {
      const std::uint64_t v = in.varint();
      if (v >= nodeCount) fail("location out of range");
      if (state.hasCopy[static_cast<std::size_t>(v)]) {
        fail("duplicate copy location");
      }
      state.hasCopy[static_cast<std::size_t>(v)] = 1;
      state.locations.push_back(static_cast<net::NodeId>(v));
    }
    state.copyCount = static_cast<int>(nLoc);
    if (anchor >= nodeCount ||
        !state.hasCopy[static_cast<std::size_t>(anchor)]) {
      fail("anchor holds no copy");
    }
    state.anchor = static_cast<net::NodeId>(anchor);
    for (const net::EdgeId e : state.countedEdges) {
      state.readCounter[static_cast<std::size_t>(e)] = 0;
    }
    state.countedEdges.clear();
    const std::uint64_t counted = in.varint();
    if (counted > edgeCount) fail("bad counter count");
    for (std::uint64_t j = 0; j < counted; ++j) {
      const std::uint64_t e = in.varint();
      const std::uint64_t value = in.varint();
      if (e >= edgeCount || value < 1 || value > kMaxCount) {
        fail("bad counter entry");
      }
      if (state.readCounter[static_cast<std::size_t>(e)] != 0) {
        fail("duplicate counter edge");
      }
      state.readCounter[static_cast<std::size_t>(e)] =
          static_cast<Count>(value);
      state.countedEdges.push_back(static_cast<net::EdgeId>(e));
    }
  }
}

std::vector<net::NodeId> OnlineTreeStrategy::copySet(ObjectId x) const {
  const ObjectState& state = objects_.at(static_cast<std::size_t>(x));
  std::vector<net::NodeId> locations(state.locations.begin(),
                                     state.locations.end());
  std::sort(locations.begin(), locations.end());
  return locations;
}

}  // namespace hbn::dynamic
