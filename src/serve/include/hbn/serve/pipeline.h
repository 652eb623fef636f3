// Stage 1 of the pipelined epoch server: the epoch-ordered ingest ring.
//
// EpochIngest pulls fixed-size epochs from a RequestStream, validates
// them, and pre-buckets them by object id (the stable CSR layout
// serveShard consumes) into a ring of EpochBatch slots addressed by
// epoch number (slot = epoch % slotCount). In threaded mode a dedicated
// ingest thread keeps the next of two slots ready while the serve thread
// works on the current one, so pulling + bucketing disappears from the
// serving critical path; in inline mode (one slot) the consumer fills
// each epoch itself, which is exactly the barrier engine's behaviour.
//
// Every fill, whoever runs it, goes through one function: under the
// lock it claims the next epoch number and marks the stream busy, it
// fills outside the lock, and it publishes the epoch (or end of stream,
// or the failure) under the lock that clears the busy flag. Epochs are
// therefore claimed, filled and handed out in one order, one filler at
// a time, from the same chunked fill loop — which is what lets
// pipeline-on/off and degraded runs be compared request for request.
//
// Graceful degradation: acquire(stallTimeoutMs) waits only that long
// for the ingest thread. If by then no filler has begun the epoch due
// next (the thread is stalled before its claim — injected via
// util::FaultInjector — or not yet scheduled), the consumer fills that
// epoch itself and marks the batch degraded: the barrier engine's
// behaviour for that one epoch. Its slot is provably free, so no spare
// batch is needed. A fill already in progress is waited for — a
// RequestStream::fill() that is itself slow is not rescued.
//
// Failures while filling (stream errors, out-of-range requests) are
// wrapped into serve::Error with Stage::Ingest and the epoch being
// assembled, and rethrown from acquire() once every earlier epoch has
// been handed out — the caller sees the same structured error in every
// mode.
//
// Arrival stamps: each fill chunk records one steady-clock stamp, the
// arrival time of every request in that chunk. The serve loop turns
// them into request-latency samples (epoch completion − arrival) for
// the p50/p99/p999 product metrics. Stamps are wall-clock observations,
// never inputs to serving, so they cannot perturb determinism.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "hbn/net/tree.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/fault.h"

namespace hbn::serve {

/// One in-flight epoch: the raw arrival-order requests, the stable
/// object-bucketed copy with its CSR offsets, and per-chunk arrival
/// stamps.
struct EpochBatch {
  using Clock = std::chrono::steady_clock;
  /// (arrival stamp, requests that arrived with it), one per fill chunk.
  using Arrival = std::pair<Clock::time_point, std::size_t>;

  std::vector<RequestEvent> raw;
  std::vector<RequestEvent> bucketed;
  std::vector<std::size_t> offsets;  ///< numObjects + 1 CSR offsets
  std::vector<Arrival> arrivals;
  std::size_t n = 0;  ///< requests in this epoch
  /// Absolute epoch number this batch holds (baseEpoch + fills so far)
  /// — fault specs and ingest errors name epochs in these terms.
  std::uint64_t epoch = 0;
  /// True when the consumer filled this epoch itself because the
  /// threaded ingest missed the stall watchdog.
  bool degraded = false;

  /// Bytes of per-request buffering this batch holds.
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;

  /// Validates raw[0, n) — every object in [0, numObjects), every
  /// origin in [0, numNodes), else std::out_of_range — and buckets it
  /// stably by object into `bucketed`/`offsets` (growing them if
  /// needed); validation rides on bucketing's counting pass. The one
  /// validate + bucket step of the ingest and the shard worker.
  void bucket(int numObjects, int numNodes);
};

/// Throws std::logic_error naming both numbers unless `batch` holds
/// epoch `expected`: each consumer's one comparison per epoch that turns
/// an out-of-order hand-out into a loud failure instead of a silently
/// different digest.
void checkEpochOrder(const EpochBatch& batch, std::uint64_t expected);

/// The epoch-ordered ingest ring. Single consumer (the serve thread):
/// acquire() → serve the batch → release(). Errors raised while filling
/// are rethrown from acquire(), so the caller sees the same exceptions
/// in both modes.
class EpochIngest {
 public:
  /// `stream`, `tree` and `faults` must outlive the ingest. `threaded`
  /// selects the dedicated ingest thread (two slots) versus inline
  /// filling on the consumer thread (one slot). `faults` may be null;
  /// `baseEpoch` is the absolute number of the first epoch this ingest
  /// will assemble (nonzero after a checkpoint restore).
  EpochIngest(RequestStream& stream, const net::Tree& tree, int numObjects,
              std::size_t epochSize, bool threaded,
              util::FaultInjector* faults = nullptr,
              std::uint64_t baseEpoch = 0);
  ~EpochIngest();

  EpochIngest(const EpochIngest&) = delete;
  EpochIngest& operator=(const EpochIngest&) = delete;

  /// Next epoch in order, blocking while it is being filled; nullptr
  /// once the stream is exhausted. Threaded mode with `stallTimeoutMs`
  /// > 0: past that wait, if no filler has begun the epoch, the calling
  /// thread fills it itself (batch->degraded). The batch stays owned by
  /// the ingest; hand it back with release() before the next acquire().
  [[nodiscard]] EpochBatch* acquire(double stallTimeoutMs = 0.0);

  /// Returns a served batch's slot to the ingest thread for refilling.
  void release(EpochBatch* batch);

  /// Bytes of per-request buffering across all slots — the pipelined
  /// engine's epochBufferBytes (proportional to the epoch and the slot
  /// count, never to the stream).
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;

 private:
  /// The one fill path: claims epoch nextClaim_ (caller holds `lock`
  /// and has checked that no fill is busy and its slot is free), runs
  /// the chunked fill + validate + bucket outside the lock, then
  /// publishes the epoch, end of stream or the wrapped failure.
  void fill(std::unique_lock<std::mutex>& lock, bool degraded);
  void ingestLoop();

  RequestStream* stream_;
  const net::Tree* tree_;
  util::FaultInjector* faults_;
  int numObjects_;
  std::size_t epochSize_;
  bool threaded_;
  std::uint64_t slotCount_;  ///< 2 threaded, 1 inline

  std::array<EpochBatch, 2> slots_;
  // Epoch counters, guarded by mutex_: epochs in [nextServe_,
  // nextClaim_) are Ready, nextClaim_ is being filled while busy_, and
  // slots of epochs < nextFree_ have been released.
  std::uint64_t nextClaim_;
  std::uint64_t nextServe_;
  std::uint64_t nextFree_;
  bool busy_ = false;
  bool done_ = false;  ///< the stream ended or a fill failed (error_)
  bool stopping_ = false;
  std::exception_ptr error_;
  std::mutex mutex_;
  std::condition_variable cv_;  ///< signalled on every change above
  std::thread worker_;
};

}  // namespace hbn::serve
