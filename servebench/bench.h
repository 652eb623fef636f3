// Shared pieces of the serving benchmark: the workload table, the result
// digest the correctness gate compares, the span recorder behind the
// traced run's Chrome trace, and the single-thread stage replay.
//
// Everything here drives the serving stack from outside, through the
// public entry points hbn_serve uses — no module is instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "hbn/core/load.h"
#include "hbn/net/rooted.h"
#include "hbn/serve/request_stream.h"

namespace servebench {

using Clock = std::chrono::steady_clock;

/// Full epochs per serve. The engine takes 16 latency samples per epoch
/// into a 4096-sample reservoir, so 256 epochs fill it exactly: p99 is
/// then exact, with 41 samples beyond it, and epoch p95 has 12.
inline constexpr std::uint64_t kEpochs = 256;

/// One named workload: a generated stream, a policy and an engine shape.
struct WorkloadSpec {
  const char* name;
  const char* stream;  ///< serve::makeGeneratedStream name
  int objects;
  const char* policy;  ///< OnlinePolicyRegistry spec
  std::size_t epochSize;
  int threads;  ///< nominal serve threads (single-process workloads)
  int workers;  ///< nominal shard workers; 0 = single-process
  std::uint64_t checkpointEvery;  ///< 0 = no checkpoints

  [[nodiscard]] std::uint64_t requests() const { return epochSize * kEpochs; }
};

/// The workload table (see README.md for why each one exists).
[[nodiscard]] const std::vector<WorkloadSpec>& workloads();

/// The serving topology every workload runs on: cluster(4,8).
[[nodiscard]] hbn::net::Tree makeTree();

/// The seeded request stream of `spec` over `tree`.
[[nodiscard]] std::unique_ptr<hbn::serve::RequestStream> makeStream(
    const WorkloadSpec& spec, const hbn::net::Tree& tree, std::uint64_t seed);

/// What the correctness gate compares: final edge loads, congestion,
/// replications and invalidations. Wall-clock fields never enter it.
struct Digest {
  std::vector<hbn::core::Count> loads;
  double congestion = 0.0;
  hbn::core::Count replications = 0;
  hbn::core::Count invalidations = 0;

  bool operator==(const Digest&) const = default;
  /// FNV-1a over every field, for printing.
  [[nodiscard]] std::uint64_t hash() const;
};

[[nodiscard]] std::vector<hbn::core::Count> loadVector(
    const hbn::core::LoadMap& loads);

/// One completed call: name, start/end, the span that caused it (-1 for
/// none), the track it ran on, and how many calls it stands for when a
/// span covers a loop of identical calls.
struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
  std::int64_t parent;
  int track;
  std::uint64_t calls;
};

/// Spans kept in memory and written once, as Chrome trace-event JSON.
class SpanRecorder {
 public:
  enum Track { kServe = 0, kIngest = 1, kReplay = 2 };

  /// Appends a span; returns its id (usable as a later span's parent).
  std::int64_t add(const char* name, Clock::time_point start,
                   Clock::time_point end, std::int64_t parent, int track,
                   std::uint64_t calls = 1);
  /// Closes a span added before its children (end was a placeholder).
  void setEnd(std::int64_t id, Clock::time_point end);
  /// Writes {"traceEvents": [...]} with one "X" event per span; throws
  /// std::runtime_error when the file cannot be written.
  void writeChromeTrace(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Per-layer costs and input properties from the single-thread replay.
struct ReplayResult {
  Digest digest;
  std::uint64_t requests = 0;
  double bucketNs = 0.0;          ///< dynamic::bucketRequestsByObject
  double serveShardNs = 0.0;      ///< OnlinePolicy::serveShard
  double aggregateLbNs = 0.0;     ///< addReads/addWrites + LB remove/add
  double encodeNs = 0.0;          ///< shard::EpochMsg::encode
  double decodeNs = 0.0;          ///< shard::EpochMsg::decode
  std::vector<double> handoffBeginMs;  ///< one per beginHandoff call
  double migrateNs = 0.0;         ///< HandoffPass::target + applyHandoffTarget
  std::uint64_t migratedObjects = 0;
  double touchedShare = 0.0;      ///< mean touched objects / objects per epoch
  double stripeImbalance = 0.0;   ///< max/mean requests per contiguous stripe
  double writeShare = 0.0;
};

/// Regenerates `seed`'s epochs of `spec` and calls each layer's public
/// function on one thread in EpochServer's order — bucket, serveShard
/// per touched object, merge, aggregation with the incremental lower
/// bound, the drift / wantsHandoff check, beginHandoff and per-object
/// migration, then wire encode/decode — recording one span per stage
/// call under its epoch span. Handoffs migrate every object inside the
/// triggering epoch (the engine's lazy schedule charges the same
/// per-object traffic, so the final digest is the same). `stripes` is
/// the thread (or worker) count the stripe-imbalance property uses.
[[nodiscard]] ReplayResult replay(const WorkloadSpec& spec,
                                  const hbn::net::RootedTree& rooted,
                                  std::uint64_t seed, int stripes,
                                  SpanRecorder& spans);

}  // namespace servebench
