#include "hbn/serve/pipeline.h"

#include <algorithm>
#include <span>
#include <stdexcept>
#include <string>

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

void checkEpochOrder(const EpochBatch& batch, std::uint64_t expected) {
  if (batch.epoch != expected) {
    throw std::logic_error("ingest handed out epoch " +
                           std::to_string(batch.epoch) + " where epoch " +
                           std::to_string(expected) + " was due");
  }
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
      slotCount_(threaded ? 2 : 1),
      nextClaim_(baseEpoch),
      nextServe_(baseEpoch),
      nextFree_(baseEpoch) {
  if (epochSize_ < 1) {
    throw std::invalid_argument("EpochIngest: epochSize >= 1");
  }
  for (std::uint64_t s = 0; s < slotCount_; ++s) {
    EpochBatch& batch = slots_[s];
    batch.raw.resize(epochSize_);
    batch.bucketed.resize(epochSize_);
    batch.offsets.resize(static_cast<std::size_t>(numObjects_) + 1);
    batch.arrivals.reserve(kIngestChunks);
  }
  // Launch last: everything the thread touches is initialised, and the
  // destructor joins it on every exit path after this point.
  if (threaded_) worker_ = std::thread([this] { ingestLoop(); });
}

EpochIngest::~EpochIngest() {
  if (!worker_.joinable()) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

void EpochIngest::fill(std::unique_lock<std::mutex>& lock, bool degraded) {
  const std::uint64_t epoch = nextClaim_;
  busy_ = true;
  EpochBatch& batch = slots_[epoch % slotCount_];
  lock.unlock();

  // Outside the lock: the consumer serves the other slot meanwhile, and
  // busy_ keeps every other filler off the stream.
  std::exception_ptr error;
  try {
    batch.epoch = epoch;
    batch.degraded = degraded;
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
    if (batch.n > 0) batch.bucket(numObjects_, tree_->nodeCount());
  } catch (const Error&) {
    error = std::current_exception();
  } catch (const std::exception& e) {
    error = std::make_exception_ptr(Error(Stage::Ingest, epoch, e.what()));
  } catch (...) {
    error = std::make_exception_ptr(
        Error(Stage::Ingest, epoch, "unknown ingest failure"));
  }

  lock.lock();
  busy_ = false;
  if (error) {
    error_ = error;
    done_ = true;
  } else if (batch.n == 0) {
    done_ = true;
  } else {
    ++nextClaim_;  // publishes the epoch: it is Ready
  }
  cv_.notify_all();
}

void EpochIngest::ingestLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_.wait(lock, [this] {
      return stopping_ || done_ ||
             (!busy_ && nextClaim_ - nextFree_ < slotCount_);
    });
    if (stopping_ || done_) return;
    // Injected ingest stall: sleep BEFORE claiming, so a watchdogged
    // consumer can take the epoch over meanwhile. The sleep ends early
    // when the epoch is taken over or the ingest stops.
    if (faults_ != nullptr) {
      const std::uint64_t epoch = nextClaim_;
      const double stall = faults_->stallMs(epoch);
      if (stall > 0.0) {
        cv_.wait_for(lock, std::chrono::duration<double, std::milli>(stall),
                     [this, epoch] {
                       return stopping_ || done_ || busy_ ||
                              nextClaim_ != epoch;
                     });
        if (stopping_ || done_ || busy_ || nextClaim_ != epoch) continue;
      }
    }
    fill(lock, false);
  }
}

EpochBatch* EpochIngest::acquire(double stallTimeoutMs) {
  std::unique_lock<std::mutex> lock(mutex_);
  const auto ready = [this] { return done_ || nextServe_ < nextClaim_; };
  if (!threaded_) {
    if (!done_) fill(lock, false);
  } else if (stallTimeoutMs > 0.0 &&
             !cv_.wait_for(lock,
                           std::chrono::duration<double, std::milli>(
                               stallTimeoutMs),
                           ready) &&
             !busy_) {
    // Watchdog: no filler has begun epoch nextServe_ (== nextClaim_),
    // and its slot is free — the consumer holds at most the previous
    // epoch, which lives in the other slot. Fill it here.
    fill(lock, true);
  }
  cv_.wait(lock, ready);
  // Drain ready epochs before reporting end of stream or an error: the
  // epochs before the failure point are valid either way.
  if (nextServe_ < nextClaim_) return &slots_[nextServe_++ % slotCount_];
  if (error_) std::rethrow_exception(error_);
  return nullptr;
}

void EpochIngest::release(EpochBatch* batch) {
  if (batch == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    nextFree_ = batch->epoch + 1;
  }
  cv_.notify_all();
}

std::uint64_t EpochIngest::bufferBytes() const noexcept {
  std::uint64_t total = 0;
  for (std::uint64_t s = 0; s < slotCount_; ++s) {
    total += slots_[s].bufferBytes();
  }
  return total;
}

}  // namespace hbn::serve
