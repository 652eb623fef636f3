// Pull-based request streams for the serving engine.
//
// A RequestStream hands out RequestEvents in batches of at most one
// epoch, so streams of tens of millions of requests are served without
// ever materialising in memory: the generator-backed source
// (makeGeneratedStream) synthesises events on demand, the trace-backed
// source reads its file incrementally, and the in-memory source exists
// for tests.
#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "hbn/net/tree.h"
#include "hbn/workload/generators.h"
#include "hbn/workload/serialize.h"
#include "hbn/workload/workload.h"

namespace hbn::serve {

using workload::RequestEvent;

/// Abstract pull source of request events.
class RequestStream {
 public:
  virtual ~RequestStream() = default;

  /// Fills up to out.size() events into the front of `out` and returns
  /// how many were produced; 0 means the stream is exhausted. A stream
  /// never buffers more than one such batch internally.
  [[nodiscard]] virtual std::size_t fill(std::span<RequestEvent> out) = 0;

  /// Discards exactly `count` events. The default implementation pulls
  /// and drops events through fill() — O(count); sources with random
  /// access (seekable generators) override this with a fast-forward.
  /// Throws std::runtime_error when the stream ends before `count`
  /// events (a checkpoint claiming more progress than the stream holds).
  virtual void skip(std::uint64_t count);
};

/// Trace-file-backed stream (hbn-trace v1), read incrementally.
class TraceFileStream final : public RequestStream {
 public:
  /// Opens `path` and parses the header; throws std::runtime_error when
  /// the file cannot be opened, std::invalid_argument on a bad header.
  explicit TraceFileStream(const std::string& path);

  [[nodiscard]] int numObjects() const noexcept {
    return reader_->numObjects();
  }
  [[nodiscard]] int numNodes() const noexcept { return reader_->numNodes(); }

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override;

 private:
  std::ifstream in_;
  std::unique_ptr<workload::TraceReader> reader_;
};

/// In-memory stream over a fixed vector; for tests and replay of short
/// sequences.
class VectorStream final : public RequestStream {
 public:
  explicit VectorStream(std::vector<RequestEvent> events)
      : events_(std::move(events)) {}

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override;

 private:
  std::vector<RequestEvent> events_;
  std::size_t cursor_ = 0;
};

/// Builds a bounded stream over one of the named workload stream
/// generators: "skewed", "bursty", "diurnal" or "phase-shift"; O(1)
/// memory regardless of `total`. The stream is templated on the
/// generator, so fill() is one direct generate() call per batch, and
/// skip() seeks the generator in O(workload::kStreamReseedBlock)
/// instead of replaying the skipped events — the difference between a
/// multi-second and a sub-millisecond checkpoint restore on
/// hundred-million-request streams. Throws std::invalid_argument for
/// unknown names.
[[nodiscard]] std::unique_ptr<RequestStream> makeGeneratedStream(
    const std::string& name, const net::Tree& tree,
    const workload::StreamParams& params, std::uint64_t seed,
    std::uint64_t total);

/// Discards exactly `count` events from `stream` — how a checkpoint
/// restore resumes a deterministic stream at its cursor (rebuild the
/// seeded generator or reopen the trace, then skip the served prefix).
/// Delegates to RequestStream::skip, so generator-backed streams
/// fast-forward in O(workload::kStreamReseedBlock) rather than
/// replaying the whole prefix. Throws std::runtime_error when the
/// stream ends before `count` events (the checkpoint claims more
/// progress than the stream holds).
void skipRequests(RequestStream& stream, std::uint64_t count);

}  // namespace hbn::serve
