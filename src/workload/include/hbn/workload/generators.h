// Workload generators: synthetic access patterns for the experiments.
//
// The paper evaluates nothing empirically; these generators provide the
// access-pattern families its motivation describes (global variables in a
// parallel program, pages of a virtual shared memory, WWW pages):
//
//   * uniform     — every processor accesses uniformly random objects,
//   * zipf        — object popularity follows a Zipf(α) law (WWW-like),
//   * hotspot     — a few hot objects receive most requests,
//   * clustered   — every object has a home subtree that issues most of
//                   its requests (the locality nibble exploits),
//   * producerConsumer — one writer per object, many readers (typical
//                   parallel-program sharing),
//   * adversarial — weights drawn to stress the deletion/mapping steps
//                   (heavy write contention concentrated on few leaves).
//
// All generators take a read fraction in [0,1]; each processor request is
// a read with that probability, a write otherwise.
#pragma once

#include <span>
#include <string>

#include "hbn/net/tree.h"
#include "hbn/util/alias.h"
#include "hbn/util/rng.h"
#include "hbn/workload/workload.h"

namespace hbn::workload {

/// Family selector for sweep harnesses.
enum class Profile {
  uniform,
  zipf,
  hotspot,
  clustered,
  producerConsumer,
  adversarial,
};

[[nodiscard]] const char* profileName(Profile p) noexcept;

/// Common generator knobs.
struct GenParams {
  int numObjects = 16;
  /// Requests issued by each processor (spread over objects).
  Count requestsPerProcessor = 64;
  /// Probability that an individual request is a read.
  double readFraction = 0.7;
  /// Zipf exponent (Profile::zipf only).
  double zipfAlpha = 0.9;
  /// Fraction of requests aimed at the hot set (Profile::hotspot only).
  double hotFraction = 0.8;
  /// Number of hot objects (Profile::hotspot only).
  int hotObjects = 2;
  /// Probability that a clustered request stays in the home subtree
  /// (Profile::clustered only).
  double localityBias = 0.9;
};

/// Generates a workload of the given profile over the processors of `tree`.
/// Only processor rows are populated; the result always passes
/// Workload::validateProcessorOnly(tree).
[[nodiscard]] Workload generate(Profile profile, const net::Tree& tree,
                                const GenParams& params, util::Rng& rng);

/// Uniform object choice, iid requests.
[[nodiscard]] Workload generateUniform(const net::Tree& tree,
                                       const GenParams& params,
                                       util::Rng& rng);

/// Zipf-popular objects.
[[nodiscard]] Workload generateZipf(const net::Tree& tree,
                                    const GenParams& params, util::Rng& rng);

/// Hot set of objects absorbing `hotFraction` of the traffic.
[[nodiscard]] Workload generateHotspot(const net::Tree& tree,
                                       const GenParams& params,
                                       util::Rng& rng);

/// Each object is homed at a random bus; requests from the home subtree
/// with probability `localityBias`.
[[nodiscard]] Workload generateClustered(const net::Tree& tree,
                                         const GenParams& params,
                                         util::Rng& rng);

/// One designated writer per object; all other processors only read.
[[nodiscard]] Workload generateProducerConsumer(const net::Tree& tree,
                                                const GenParams& params,
                                                util::Rng& rng);

/// Write-heavy contention concentrated on few random leaves per object;
/// stresses the κ_x-based machinery of steps 2 and 3.
[[nodiscard]] Workload generateAdversarial(const net::Tree& tree,
                                           const GenParams& params,
                                           util::Rng& rng);

// ---------------------------------------------------------------------------
// Request-stream generators.
//
// Where the matrix generators above produce aggregated frequencies, these
// produce an *online* stream of individual RequestEvents, one at a time,
// so request sequences of arbitrary length never materialise in memory.
// Each generator is deterministic from its seed; the serve layer wraps
// them into pull-based RequestStreams, which fill through generate():
// a loop over next() compiled in the generator's own translation unit,
// so the per-event draw inlines instead of costing a call per request.
// ---------------------------------------------------------------------------

/// Knobs shared by the stream generators.
struct StreamParams {
  int numObjects = 1024;
  /// Probability that an individual request is a read.
  double readFraction = 0.9;
  /// skewed: Zipf exponent of the object popularity law.
  double zipfAlpha = 1.1;
  /// bursty: consecutive requests a burst pins to one (object, origin).
  int burstLength = 64;
  /// diurnal: requests per simulated day (one full rotation of the hot
  /// region over processors and objects).
  std::uint64_t period = 1 << 16;
  /// diurnal: fraction of traffic following the rotating hot region.
  double amplitude = 0.8;
  /// phase-shift: requests per regime before the stream switches to the
  /// next one (align to a multiple of the serving epoch so regime
  /// boundaries land on epoch boundaries).
  std::uint64_t phaseLength = 1 << 15;
};

/// Requests per RNG re-seed block. Every stream generator below derives
/// a fresh per-block RNG from (seed, blockIndex) at each multiple of
/// this count and resets its carry state (burst runs never span a block
/// boundary), so the generator state at any position is a function of
/// the seed and the position *within its block* alone. That is what
/// makes seek() O(kStreamReseedBlock) instead of O(position): jump to
/// the block start by arithmetic, replay at most one block. Checkpoint
/// restore of a multi-million-request stream stops being linear in the
/// served prefix (serve::skipRequests fast-forwards through this seam).
inline constexpr std::uint64_t kStreamReseedBlock = 4096;

/// WWW-like skew: object popularity Zipf(α), origins uniform over
/// processors. O(1) per event — a Walker alias table over the popularity
/// weights, so stream generation no longer competes with serving even
/// for millions of objects (the former binary-search CDF was O(log |X|)
/// per event).
class SkewedStream {
 public:
  SkewedStream(const net::Tree& tree, const StreamParams& params,
               std::uint64_t seed);
  [[nodiscard]] RequestEvent next();
  /// Fills `out` with the next out.size() events — exactly the events
  /// that many next() calls would return.
  void generate(std::span<RequestEvent> out);
  /// Repositions the stream so the next next() returns the event at
  /// 0-based `position` — O(kStreamReseedBlock), not O(position).
  void seek(std::uint64_t position);

 private:
  void beginBlock();

  std::vector<net::NodeId> procs_;
  util::AliasTable popularity_;  ///< Zipf(α) weights, O(1) sampling
  double readFraction_;
  std::uint64_t seed_;
  std::uint64_t position_ = 0;
  util::Rng rng_;
};

/// Bursty traffic: requests arrive in runs of `burstLength` pinned to one
/// (object, origin) pair before the stream jumps to the next pair.
class BurstyStream {
 public:
  BurstyStream(const net::Tree& tree, const StreamParams& params,
               std::uint64_t seed);
  [[nodiscard]] RequestEvent next();
  /// See SkewedStream::generate.
  void generate(std::span<RequestEvent> out);
  /// See SkewedStream::seek. Bursts never span re-seed blocks, so
  /// replaying from the block start reproduces the burst state exactly.
  void seek(std::uint64_t position);

 private:
  void beginBlock();

  std::vector<net::NodeId> procs_;
  int numObjects_;
  int burstLength_;
  double readFraction_;
  int remaining_ = 0;  ///< events left in the current burst
  ObjectId burstObject_ = 0;
  net::NodeId burstOrigin_ = net::kInvalidNode;
  std::uint64_t seed_;
  std::uint64_t position_ = 0;
  util::Rng rng_;
};

/// Diurnal traffic: a hot window over processors and objects rotates once
/// per `period` events (time-of-day shifting load between regions);
/// `amplitude` of the traffic follows the window, the rest is uniform.
class DiurnalStream {
 public:
  DiurnalStream(const net::Tree& tree, const StreamParams& params,
                std::uint64_t seed);
  [[nodiscard]] RequestEvent next();
  /// See SkewedStream::generate.
  void generate(std::span<RequestEvent> out);
  /// See SkewedStream::seek. The time-of-day phase is derived from the
  /// stream position, so seeking lands on the right hot region.
  void seek(std::uint64_t position);

 private:
  void beginBlock();

  std::vector<net::NodeId> procs_;
  int numObjects_;
  std::uint64_t period_;
  double amplitude_;
  double readFraction_;
  std::uint64_t seed_;
  std::uint64_t position_ = 0;
  util::Rng rng_;
};

/// Phase-shift traffic: the stream cycles through the kCycle regime
/// schedule, each slot held for exactly `phaseLength` requests —
///   0: read-heavy Zipf skew (favours replication),
///   1: write-heavy churn over the same Zipf popularity (favours few
///      copies),
///   2: ping-pong bursts pinned to one (object, origin) pair at the
///      base read fraction (favours the counter scheme's migration).
/// The schedule is [skew, skew, churn, burst]: skew is the workload's
/// steady state (half of every cycle, and long enough for replication
/// decisions to pay for themselves), periodically interrupted by a
/// churn phase and a burst phase that punish whoever over-committed to
/// it. No fixed policy is best across a whole cycle, which is exactly
/// the regime-tracking workload the adaptive meta-policy exists for.
/// Deterministic from the seed; regime boundaries land on multiples of
/// `phaseLength`, so sizing phaseLength to a multiple of the serving
/// epoch aligns them with epoch boundaries.
class PhaseShiftStream {
 public:
  static constexpr int kRegimes = 3;
  /// Regime schedule of one cycle, one slot per phaseLength requests.
  static constexpr int kCycle[] = {0, 0, 1, 2};
  static constexpr std::uint64_t kCycleSlots = 4;
  /// Read fraction of the skew regime (regime 0).
  static constexpr double kSkewReadFraction = 0.98;
  /// Read fraction of the churn regime (regime 1).
  static constexpr double kChurnReadFraction = 0.15;

  PhaseShiftStream(const net::Tree& tree, const StreamParams& params,
                   std::uint64_t seed);
  [[nodiscard]] RequestEvent next();
  /// See SkewedStream::generate.
  void generate(std::span<RequestEvent> out);
  /// See SkewedStream::seek. Regime schedule is position arithmetic;
  /// bursts span neither regime nor re-seed-block boundaries.
  void seek(std::uint64_t position);

  /// Regime index of the request at stream position `index` (0-based):
  /// pure arithmetic, exposed so tests can assert boundary placement.
  [[nodiscard]] static int regimeAt(std::uint64_t index,
                                    std::uint64_t phaseLength) noexcept {
    return kCycle[(index / phaseLength) % kCycleSlots];
  }

 private:
  void beginBlock();

  std::vector<net::NodeId> procs_;
  util::AliasTable popularity_;  ///< shared Zipf law of regimes 0 and 1
  int numObjects_;
  int burstLength_;
  double burstReadFraction_;  ///< base readFraction, used by regime 2
  std::uint64_t phaseLength_;
  std::uint64_t seed_;
  std::uint64_t position_ = 0;
  int remaining_ = 0;  ///< events left in the current regime-2 burst
  ObjectId burstObject_ = 0;
  net::NodeId burstOrigin_ = net::kInvalidNode;
  util::Rng rng_;
};

}  // namespace hbn::workload
