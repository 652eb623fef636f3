// Stage 1 of the pipelined epoch server: double-buffered ingest.
//
// EpochIngest pulls fixed-size epochs from a RequestStream, validates
// them, and pre-buckets them by object id (the stable CSR layout
// serveShard consumes) into one of two EpochBatch slots. In threaded
// mode a dedicated ingest thread keeps the next slot ready while the
// serve thread works on the current one, so pulling + bucketing
// disappears from the serving critical path; in inline mode the same
// fill runs on the caller's thread, which is exactly the barrier
// engine's behaviour. Both modes assemble identical epochs from the
// same stream (same chunked fill loop), which is what lets
// pipeline-on/off runs be compared request for request.
//
// Graceful degradation: when the ingest thread stalls (injected via
// util::FaultInjector, or a genuinely slow stream), acquireFor() lets
// the serve thread wait only a bounded time and then fill the epoch
// inline itself — falling back to the barrier engine for that one
// epoch instead of hanging the pipeline. Every fill (ingest-thread,
// inline, or degraded) runs under one fill mutex and claims the next
// epoch number inside it, so the stream is consumed by exactly one
// filler at a time and epochs keep their order and contents no matter
// which thread assembled them — degraded runs stay bit-identical.
//
// Failures while filling (stream errors, out-of-range requests) are
// wrapped into serve::Error with Stage::Ingest and the epoch being
// assembled, captured on whichever thread hit them, and rethrown from
// acquire()/acquireFor() — the caller sees the same structured error
// in every mode.
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

  /// Bytes of per-request buffering this batch holds.
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;

  /// Validates raw[0, n) — every object in [0, numObjects), every
  /// origin in [0, numNodes), else std::out_of_range — and buckets it
  /// stably by object into `bucketed`/`offsets` (growing them if
  /// needed); validation rides on bucketing's counting pass. The one
  /// validate + bucket step of the ingest and the shard worker.
  void bucket(int numObjects, int numNodes);
};

/// What acquireFor() handed out: the batch (nullptr at end of stream)
/// and whether the serve thread had to assemble it itself because the
/// ingest thread was stalled past the watchdog timeout.
struct AcquireResult {
  EpochBatch* batch = nullptr;
  bool degraded = false;
};

/// The double-buffered ingest stage. Single consumer (the serve
/// thread): acquire() → serve the batch → release(). Errors raised
/// while filling are captured on the ingest thread and rethrown from
/// acquire(), so the caller sees the same exceptions in both modes.
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

  /// Next ready epoch, blocking on the ingest thread if it is still
  /// filling; nullptr once the stream is exhausted. The batch stays
  /// owned by the ingest; hand it back with release() before the next
  /// acquire().
  [[nodiscard]] EpochBatch* acquire();

  /// acquire() with a stall watchdog: waits up to `timeoutMs` for the
  /// ingest thread, then assembles the epoch inline on the calling
  /// thread (degraded = true) — the barrier engine's behaviour for that
  /// one epoch. `timeoutMs` <= 0 (or inline mode) means wait forever,
  /// i.e. plain acquire().
  [[nodiscard]] AcquireResult acquireFor(double timeoutMs);

  /// Returns a served batch's slot to the ingest thread for refilling.
  void release(EpochBatch* batch);

  /// Bytes of per-request buffering across all slots — the pipelined
  /// engine's epochBufferBytes (proportional to the epoch and the slot
  /// count, never to the stream).
  [[nodiscard]] std::uint64_t bufferBytes() const noexcept;

 private:
  /// Sizes `batch`'s buffers for one epoch.
  void allocate(EpochBatch& batch) const;
  /// Hands out the ready slot; otherwise rethrows a captured fill error
  /// or returns nullptr (end of stream). Caller holds mutex_.
  [[nodiscard]] EpochBatch* takeReady();
  /// Chunked fill + validate + bucket of one epoch into `batch`.
  void fillBatch(EpochBatch& batch);
  /// Claims the next epoch number and fills `batch` while holding
  /// fillMutex_ (the single-filler token); wraps failures into
  /// serve::Error{Ingest}. Returns false at end of stream.
  bool fillNextEpoch(EpochBatch& batch);
  void ingestLoop();
  /// Signals the ingest thread to stop and joins it; safe to call more
  /// than once. The destructor's RAII teardown — also invoked when the
  /// constructor fails after launching the thread.
  void shutdown() noexcept;

  enum class SlotState { Free, Ready };

  RequestStream* stream_;
  const net::Tree* tree_;
  util::FaultInjector* faults_;
  int numObjects_;
  std::size_t epochSize_;
  bool threaded_;

  std::array<EpochBatch, 2> slots_;
  std::array<SlotState, 2> state_{SlotState::Free, SlotState::Free};
  /// Spare batch the serve thread fills inline when the watchdog fires;
  /// sized lazily on first degradation so healthy runs never pay for it.
  EpochBatch degraded_;
  std::size_t fillIndex_ = 0;   ///< next slot the ingest thread fills
  std::size_t serveIndex_ = 0;  ///< next slot acquire() hands out
  /// Absolute number of the next epoch any filler will assemble;
  /// guarded by mutex_, advanced inside fillNextEpoch.
  std::uint64_t nextEpoch_ = 0;
  bool exhausted_ = false;
  bool stopping_ = false;
  std::exception_ptr error_;
  std::mutex mutex_;
  /// Single-filler token: held across every stream fill (ingest thread
  /// and degraded inline fills alike), so the stream sees one orderly
  /// consumer. Never acquired while holding mutex_.
  std::mutex fillMutex_;
  std::condition_variable readyCv_;  ///< signalled when a slot turns Ready
  std::condition_variable freeCv_;   ///< signalled when a slot turns Free,
                                     ///< an epoch is claimed, or stopping
  std::thread worker_;
};

}  // namespace hbn::serve
