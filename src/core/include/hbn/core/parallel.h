// Object-range parallel execution.
//
// The paper's placement algorithms run in O(|V|) per object, independently
// per object — so the natural production parallelisation splits the
// object range over a worker pool. The split is a list of ascending cuts:
// worker t owns the contiguous objects [cuts[t], cuts[t+1]). Uniform cuts
// give every worker the same number of objects; request-weighted cuts
// (from an epoch's CSR bucket offsets) give every worker about the same
// work — requests plus a fixed cost per touched object — which is what
// balances a skewed epoch whose hot objects have the lowest ids. Each
// worker writes only to its own objects' slots, so no synchronisation is
// needed and the merged result is bit-identical to the sequential loop
// for any worker count and any cuts.
#pragma once

#include <cstddef>
#include <exception>
#include <span>
#include <thread>
#include <vector>

#include "hbn/workload/workload.h"

namespace hbn::core {

/// Resolves a requested thread count: 0 = hardware concurrency, and never
/// more workers than items. Always >= 1 (for items >= 1).
[[nodiscard]] int resolveWorkerCount(int requested, int items);

/// Writes uniform cuts of [0, numObjects) into `cuts` (workers + 1
/// entries): worker t gets objects [numObjects·t/W, numObjects·(t+1)/W).
void uniformCuts(int numObjects, std::span<workload::ObjectId> cuts);

/// Writes request-weighted cuts into `cuts` (workers + 1 entries) from
/// CSR bucket offsets (numObjects + 1 entries, offsets[x] = requests to
/// objects below x). Each touched object weighs its request count plus
/// `objectCost`, the per-object work (setup, aggregation) expressed in
/// requests; untouched objects weigh nothing. Cut t is the first object
/// whose prefix weight reaches t/W of the total, found in one O(|X|)
/// pass. Cuts are ascending and cover [0, numObjects); each worker's
/// weight is below total/W plus the heaviest single object's weight,
/// and a range may be empty.
void requestWeightedCuts(std::span<const std::size_t> offsets,
                         std::size_t objectCost,
                         std::span<workload::ObjectId> cuts);

/// The one range runner: calls fn(begin, end, worker) once per worker t
/// in [0, cuts.size() − 1) with [begin, end) = [cuts[t], cuts[t+1]) —
/// also for empty ranges — on its own thread (worker 0 on the caller's).
/// Worker exceptions must not reach std::thread (std::terminate, no
/// unwinding): each worker captures its exception, which ends its range,
/// every thread is joined unconditionally, and the lowest worker's
/// exception rethrows on the caller — deterministic regardless of
/// scheduling.
template <typename Fn>
void parallelForRanges(std::span<const workload::ObjectId> cuts, Fn&& fn) {
  const int workers = static_cast<int>(cuts.size()) - 1;
  if (workers <= 1) {
    if (workers == 1) fn(cuts[0], cuts[1], 0);
    return;
  }
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(workers));
  const auto runRange = [&cuts, &fn, &errors](int t) {
    try {
      fn(cuts[static_cast<std::size_t>(t)],
         cuts[static_cast<std::size_t>(t) + 1], t);
    } catch (...) {
      errors[static_cast<std::size_t>(t)] = std::current_exception();
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(workers) - 1);
  for (int t = 1; t < workers; ++t) pool.emplace_back(runRange, t);
  runRange(0);
  for (std::thread& worker : pool) worker.join();
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

/// Runs fn(x, worker) for every object id x in [0, numObjects) over
/// uniform cuts; `worker` is in [0, resolveWorkerCount(threads,
/// numObjects)), letting callers hand each worker its own scratch
/// buffers. Same exception contract as parallelForRanges.
template <typename Fn>
void parallelForObjects(int numObjects, int threads, Fn&& fn) {
  std::vector<workload::ObjectId> cuts(
      static_cast<std::size_t>(resolveWorkerCount(threads, numObjects)) + 1);
  uniformCuts(numObjects, cuts);
  parallelForRanges(cuts, [&fn](workload::ObjectId begin,
                                workload::ObjectId end, int worker) {
    for (workload::ObjectId x = begin; x < end; ++x) fn(x, worker);
  });
}

}  // namespace hbn::core
