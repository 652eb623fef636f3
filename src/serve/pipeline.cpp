#include "hbn/serve/pipeline.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <utility>

#include "hbn/dynamic/harness.h"
#include "hbn/serve/error.h"

namespace hbn::serve {
namespace {

/// Fill chunks per epoch: each chunk gets one arrival stamp, so an
/// epoch contributes up to this many latency samples. Small enough that
/// stamping is free, large enough that per-epoch p99 means something.
constexpr std::size_t kIngestChunks = 16;

}  // namespace

std::uint64_t EpochBatch::bufferBytes() const noexcept {
  return static_cast<std::uint64_t>(raw.capacity() + bucketed.capacity()) *
             sizeof(RequestEvent) +
         static_cast<std::uint64_t>(offsets.capacity()) *
             sizeof(std::size_t) +
         static_cast<std::uint64_t>(arrivals.capacity()) *
             sizeof(arrivals[0]);
}

void EpochBatch::bucket(int numObjects, int numNodes) {
  if (bucketed.size() < n) bucketed.resize(n);
  offsets.resize(static_cast<std::size_t>(numObjects) + 1);
  dynamic::bucketRequestsByObject(
      std::span<const RequestEvent>(raw.data(), n), numObjects, offsets,
      std::span<RequestEvent>(bucketed.data(), n), numNodes);
}

EpochIngest::EpochIngest(RequestStream& stream, const net::Tree& tree,
                         int numObjects, std::size_t epochSize, bool threaded,
                         util::FaultInjector* faults,
                         std::uint64_t baseEpoch)
    : stream_(&stream),
      tree_(&tree),
      faults_(faults),
      numObjects_(numObjects),
      epochSize_(epochSize),
      threaded_(threaded),
      nextEpoch_(baseEpoch) {
  if (epochSize_ < 1) {
    throw std::invalid_argument("EpochIngest: epochSize >= 1");
  }
  allocate(slots_[0]);
  if (threaded_) allocate(slots_[1]);
  // Launch last: everything the thread touches is initialised, and the
  // RAII shutdown() below joins it on every exit path after this point.
  if (threaded_) {
    worker_ = std::thread([this] { ingestLoop(); });
  }
}

EpochIngest::~EpochIngest() { shutdown(); }

void EpochIngest::allocate(EpochBatch& batch) const {
  batch.raw.resize(epochSize_);
  batch.bucketed.resize(epochSize_);
  batch.offsets.resize(static_cast<std::size_t>(numObjects_) + 1);
  batch.arrivals.reserve(kIngestChunks);
}

EpochBatch* EpochIngest::takeReady() {
  if (state_[serveIndex_] == SlotState::Ready) {
    // Drain ready slots before reporting end-of-stream or an error: the
    // epochs before the failure point are valid either way.
    EpochBatch* batch = &slots_[serveIndex_];
    serveIndex_ = 1 - serveIndex_;
    return batch;
  }
  if (error_) std::rethrow_exception(error_);
  return nullptr;  // exhausted
}

void EpochIngest::shutdown() noexcept {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  freeCv_.notify_all();
  worker_.join();
}

void EpochIngest::fillBatch(EpochBatch& batch) {
  batch.n = 0;
  batch.arrivals.clear();
  const std::size_t chunk = std::max<std::size_t>(
      1, (epochSize_ + kIngestChunks - 1) / kIngestChunks);
  while (batch.n < epochSize_) {
    const std::size_t want = std::min(chunk, epochSize_ - batch.n);
    const std::size_t got = stream_->fill(
        std::span<RequestEvent>(batch.raw.data() + batch.n, want));
    if (got == 0) break;
    batch.arrivals.emplace_back(EpochBatch::Clock::now(), got);
    batch.n += got;
  }
  if (batch.n == 0) return;
  batch.bucket(numObjects_, tree_->nodeCount());
}

bool EpochIngest::fillNextEpoch(EpochBatch& batch) {
  // Caller holds fillMutex_ (the single-filler token): only one thread
  // touches the stream at a time, and the epoch number claimed here is
  // therefore strictly sequential no matter which thread fills.
  std::uint64_t epoch;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    epoch = nextEpoch_;
  }
  batch.epoch = epoch;
  try {
    fillBatch(batch);
  } catch (const Error&) {
    throw;
  } catch (const std::exception& e) {
    throw Error(Stage::Ingest, epoch, e.what());
  } catch (...) {
    throw Error(Stage::Ingest, epoch, "unknown ingest failure");
  }
  if (batch.n == 0) return false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++nextEpoch_;
  }
  // Wakes an ingest thread stalled on this epoch: its epoch was taken
  // over, it should move on to the next one.
  freeCv_.notify_all();
  return true;
}

void EpochIngest::ingestLoop() {
  for (;;) {
    std::size_t index;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      freeCv_.wait(lock, [this] {
        return stopping_ || state_[fillIndex_] == SlotState::Free;
      });
      if (stopping_) return;
      index = fillIndex_;
      // Injected ingest stall: sleep BEFORE taking the fill token, so a
      // watchdogged consumer (acquireFor) can assemble the epoch itself
      // meanwhile. The sleep is interruptible — it ends early when the
      // epoch is taken over, the stream ends, or we are stopping.
      if (faults_ != nullptr) {
        const std::uint64_t epoch = nextEpoch_;
        const double stall = faults_->stallMs(epoch);
        if (stall > 0.0) {
          freeCv_.wait_for(
              lock, std::chrono::duration<double, std::milli>(stall),
              [this, epoch] {
                return stopping_ || exhausted_ || nextEpoch_ != epoch;
              });
          if (stopping_) return;
          if (exhausted_ || nextEpoch_ != epoch) continue;
        }
      }
    }
    // Fill outside mutex_: this is the whole point of the stage — the
    // consumer serves the other slot meanwhile.
    bool end = false;
    try {
      std::lock_guard<std::mutex> fillLock(fillMutex_);
      end = !fillNextEpoch(slots_[index]);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      error_ = std::current_exception();
      readyCv_.notify_all();
      return;
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (end) {
        exhausted_ = true;
        readyCv_.notify_all();
        return;
      }
      state_[index] = SlotState::Ready;
      fillIndex_ = 1 - fillIndex_;
    }
    readyCv_.notify_all();
  }
}

EpochBatch* EpochIngest::acquire() {
  if (!threaded_) {
    EpochBatch& batch = slots_[0];
    std::lock_guard<std::mutex> fillLock(fillMutex_);
    return fillNextEpoch(batch) ? &batch : nullptr;
  }
  std::unique_lock<std::mutex> lock(mutex_);
  readyCv_.wait(lock, [this] {
    return error_ || exhausted_ || state_[serveIndex_] == SlotState::Ready;
  });
  return takeReady();
}

AcquireResult EpochIngest::acquireFor(double timeoutMs) {
  if (!threaded_ || timeoutMs <= 0.0) return {acquire(), false};
  {
    std::unique_lock<std::mutex> lock(mutex_);
    const bool signalled = readyCv_.wait_for(
        lock, std::chrono::duration<double, std::milli>(timeoutMs), [this] {
          return error_ || exhausted_ ||
                 state_[serveIndex_] == SlotState::Ready;
        });
    if (signalled) return {takeReady(), false};
  }
  // Watchdog fired: contend for the fill token. If the ingest thread
  // finishes while we wait for it, serve its slot normally — only a
  // thread that wins the token against a still-stalled ingest assembles
  // the epoch inline (the barrier engine's behaviour for this epoch).
  std::lock_guard<std::mutex> fillLock(fillMutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (error_ || exhausted_ || state_[serveIndex_] == SlotState::Ready) {
      return {takeReady(), false};
    }
  }
  if (degraded_.offsets.empty()) allocate(degraded_);
  if (!fillNextEpoch(degraded_)) {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      exhausted_ = true;
    }
    freeCv_.notify_all();  // releases an ingest thread stalled on this epoch
    return {nullptr, false};
  }
  return {&degraded_, true};
}

void EpochIngest::release(EpochBatch* batch) {
  if (!threaded_ || batch == nullptr || batch == &degraded_) return;
  const auto index = static_cast<std::size_t>(batch - slots_.data());
  {
    std::lock_guard<std::mutex> lock(mutex_);
    state_[index] = SlotState::Free;
  }
  freeCv_.notify_all();
}

std::uint64_t EpochIngest::bufferBytes() const noexcept {
  const std::size_t slotCount = threaded_ ? 2 : 1;
  std::uint64_t total = degraded_.bufferBytes();
  for (std::size_t s = 0; s < slotCount; ++s) {
    total += slots_[s].bufferBytes();
  }
  return total;
}

}  // namespace hbn::serve
