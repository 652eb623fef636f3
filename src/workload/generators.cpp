#include "hbn/workload/generators.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "hbn/net/rooted.h"

namespace hbn::workload {
namespace {

void checkParams(const GenParams& params) {
  if (params.numObjects < 1) {
    throw std::invalid_argument("GenParams: numObjects >= 1");
  }
  if (params.requestsPerProcessor < 0) {
    throw std::invalid_argument("GenParams: requestsPerProcessor >= 0");
  }
  if (params.readFraction < 0.0 || params.readFraction > 1.0) {
    throw std::invalid_argument("GenParams: readFraction in [0,1]");
  }
}

// Adds `count` requests from `proc` to `x`, splitting into reads/writes by
// the read fraction. Uses expected counts with a randomised remainder so
// small request budgets still hit the target fraction on average.
void addSplit(Workload& w, ObjectId x, net::NodeId proc, Count count,
              double readFraction, util::Rng& rng) {
  if (count <= 0) return;
  const double expectedReads = static_cast<double>(count) * readFraction;
  Count reads = static_cast<Count>(expectedReads);
  const double frac = expectedReads - static_cast<double>(reads);
  if (rng.nextBool(frac)) ++reads;
  reads = std::min(reads, count);
  w.addReads(x, proc, reads);
  w.addWrites(x, proc, count - reads);
}

// Zipf CDF over numObjects ranks with exponent alpha.
std::vector<double> zipfWeights(int numObjects, double alpha) {
  std::vector<double> weights(static_cast<std::size_t>(numObjects));
  for (int i = 0; i < numObjects; ++i) {
    weights[static_cast<std::size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), alpha);
  }
  return weights;
}

}  // namespace

const char* profileName(Profile p) noexcept {
  switch (p) {
    case Profile::uniform:
      return "uniform";
    case Profile::zipf:
      return "zipf";
    case Profile::hotspot:
      return "hotspot";
    case Profile::clustered:
      return "clustered";
    case Profile::producerConsumer:
      return "producer-consumer";
    case Profile::adversarial:
      return "adversarial";
  }
  return "?";
}

Workload generate(Profile profile, const net::Tree& tree,
                  const GenParams& params, util::Rng& rng) {
  switch (profile) {
    case Profile::uniform:
      return generateUniform(tree, params, rng);
    case Profile::zipf:
      return generateZipf(tree, params, rng);
    case Profile::hotspot:
      return generateHotspot(tree, params, rng);
    case Profile::clustered:
      return generateClustered(tree, params, rng);
    case Profile::producerConsumer:
      return generateProducerConsumer(tree, params, rng);
    case Profile::adversarial:
      return generateAdversarial(tree, params, rng);
  }
  throw std::invalid_argument("generate: unknown profile");
}

Workload generateUniform(const net::Tree& tree, const GenParams& params,
                         util::Rng& rng) {
  checkParams(params);
  Workload w(params.numObjects, tree.nodeCount());
  for (const net::NodeId proc : tree.processors()) {
    for (Count i = 0; i < params.requestsPerProcessor; ++i) {
      const auto x = static_cast<ObjectId>(
          rng.nextBelow(static_cast<std::uint64_t>(params.numObjects)));
      addSplit(w, x, proc, 1, params.readFraction, rng);
    }
  }
  return w;
}

Workload generateZipf(const net::Tree& tree, const GenParams& params,
                      util::Rng& rng) {
  checkParams(params);
  const auto weights = zipfWeights(params.numObjects, params.zipfAlpha);
  Workload w(params.numObjects, tree.nodeCount());
  for (const net::NodeId proc : tree.processors()) {
    for (Count i = 0; i < params.requestsPerProcessor; ++i) {
      const auto x = static_cast<ObjectId>(rng.nextWeighted(weights));
      addSplit(w, x, proc, 1, params.readFraction, rng);
    }
  }
  return w;
}

Workload generateHotspot(const net::Tree& tree, const GenParams& params,
                         util::Rng& rng) {
  checkParams(params);
  const int hot = std::clamp(params.hotObjects, 1, params.numObjects);
  Workload w(params.numObjects, tree.nodeCount());
  for (const net::NodeId proc : tree.processors()) {
    for (Count i = 0; i < params.requestsPerProcessor; ++i) {
      ObjectId x = 0;
      if (rng.nextBool(params.hotFraction)) {
        x = static_cast<ObjectId>(
            rng.nextBelow(static_cast<std::uint64_t>(hot)));
      } else {
        x = static_cast<ObjectId>(
            rng.nextBelow(static_cast<std::uint64_t>(params.numObjects)));
      }
      addSplit(w, x, proc, 1, params.readFraction, rng);
    }
  }
  return w;
}

Workload generateClustered(const net::Tree& tree, const GenParams& params,
                           util::Rng& rng) {
  checkParams(params);
  Workload w(params.numObjects, tree.nodeCount());
  const net::RootedTree rooted(tree, tree.defaultRoot());

  // Partition processors by "home" subtree: pick a random home bus per
  // object; processors below it are local, others remote.
  const auto buses = tree.buses();
  const auto procs = tree.processors();
  std::vector<net::NodeId> local;
  std::vector<net::NodeId> remote;
  for (ObjectId x = 0; x < params.numObjects; ++x) {
    const net::NodeId home =
        buses.empty()
            ? tree.defaultRoot()
            : buses[static_cast<std::size_t>(
                  rng.nextBelow(static_cast<std::uint64_t>(buses.size())))];
    local.clear();
    remote.clear();
    for (const net::NodeId p : procs) {
      (rooted.isAncestorOf(home, p) ? local : remote).push_back(p);
    }
    if (local.empty()) local = remote;  // degenerate home: treat all as local
    // Distribute this object's share of each processor's budget.
    const Count perObject =
        std::max<Count>(1, params.requestsPerProcessor /
                               std::max(1, params.numObjects));
    for (const net::NodeId p : procs) {
      const bool isLocal =
          std::find(local.begin(), local.end(), p) != local.end();
      const double keep = isLocal ? params.localityBias
                                  : (1.0 - params.localityBias);
      Count count = 0;
      for (Count i = 0; i < perObject; ++i) {
        if (rng.nextBool(keep)) ++count;
      }
      addSplit(w, x, p, count, params.readFraction, rng);
    }
  }
  return w;
}

Workload generateProducerConsumer(const net::Tree& tree,
                                  const GenParams& params, util::Rng& rng) {
  checkParams(params);
  Workload w(params.numObjects, tree.nodeCount());
  const auto procs = tree.processors();
  const Count perObject = std::max<Count>(
      1, params.requestsPerProcessor / std::max(1, params.numObjects));
  for (ObjectId x = 0; x < params.numObjects; ++x) {
    const net::NodeId writer = procs[static_cast<std::size_t>(
        rng.nextBelow(static_cast<std::uint64_t>(procs.size())))];
    w.addWrites(x, writer, perObject);
    for (const net::NodeId p : procs) {
      if (p == writer) continue;
      // Consumers read with intensity scaled by readFraction.
      const auto reads = static_cast<Count>(
          std::llround(static_cast<double>(perObject) * params.readFraction));
      if (reads > 0) w.addReads(x, p, reads);
    }
  }
  return w;
}

namespace {

std::vector<net::NodeId> copyProcessors(const net::Tree& tree) {
  const auto procs = tree.processors();
  if (procs.empty()) {
    throw std::invalid_argument("stream generator: tree has no processors");
  }
  return {procs.begin(), procs.end()};
}

void checkStreamParams(const StreamParams& params) {
  if (params.numObjects < 1) {
    throw std::invalid_argument("StreamParams: numObjects >= 1");
  }
  if (params.readFraction < 0.0 || params.readFraction > 1.0) {
    throw std::invalid_argument("StreamParams: readFraction in [0,1]");
  }
  if (params.burstLength < 1) {
    throw std::invalid_argument("StreamParams: burstLength >= 1");
  }
  if (params.period < 1) {
    throw std::invalid_argument("StreamParams: period >= 1");
  }
  if (params.amplitude < 0.0 || params.amplitude > 1.0) {
    throw std::invalid_argument("StreamParams: amplitude in [0,1]");
  }
  if (params.phaseLength < 1) {
    throw std::invalid_argument("StreamParams: phaseLength >= 1");
  }
}

// Validated Zipf popularity weights for the skewed stream's alias table
// (validation must precede the table build, which rejects empty input
// with a less specific message).
std::vector<double> streamZipfWeights(const StreamParams& params) {
  checkStreamParams(params);
  return zipfWeights(params.numObjects, params.zipfAlpha);
}

// The per-block RNG seed: a SplitMix64 mix of the stream seed and the
// block index, so blocks are mutually independent and any block's RNG
// is reconstructible in O(1) — the seam seek() jumps through.
std::uint64_t blockSeed(std::uint64_t seed, std::uint64_t block) {
  std::uint64_t state = seed + 0x9e3779b97f4a7c15ULL * (block + 1);
  return util::splitmix64(state);
}

// Shared seek body: jump to the enclosing block start (beginBlock runs
// from next() at the boundary) and replay the intra-block prefix.
template <typename Stream>
void seekStream(Stream& stream, std::uint64_t& position,
                std::uint64_t target) {
  position = target - target % kStreamReseedBlock;
  while (position < target) (void)stream.next();
}

}  // namespace

SkewedStream::SkewedStream(const net::Tree& tree, const StreamParams& params,
                           std::uint64_t seed)
    : procs_(copyProcessors(tree)),
      popularity_(streamZipfWeights(params)),
      readFraction_(params.readFraction),
      seed_(seed),
      rng_(seed) {}

void SkewedStream::beginBlock() {
  rng_ = util::Rng(blockSeed(seed_, position_ / kStreamReseedBlock));
}

RequestEvent SkewedStream::next() {
  if (position_ % kStreamReseedBlock == 0) beginBlock();
  ++position_;
  // O(1) per event: Walker alias draw for the object, one bounded draw
  // for the origin (the former CDF binary search was O(log |X|) and
  // showed up beside the batched serving engine in e12 profiles).
  const auto rank = static_cast<ObjectId>(popularity_.sample(rng_));
  const net::NodeId origin = procs_[static_cast<std::size_t>(
      rng_.nextBelow(static_cast<std::uint64_t>(procs_.size())))];
  return RequestEvent{rank, origin, !rng_.nextBool(readFraction_)};
}

void SkewedStream::generate(std::span<RequestEvent> out) {
  for (RequestEvent& event : out) event = next();
}

void SkewedStream::seek(std::uint64_t position) {
  seekStream(*this, position_, position);
}

BurstyStream::BurstyStream(const net::Tree& tree, const StreamParams& params,
                           std::uint64_t seed)
    : procs_(copyProcessors(tree)),
      numObjects_(params.numObjects),
      burstLength_(params.burstLength),
      readFraction_(params.readFraction),
      seed_(seed),
      rng_(seed) {
  checkStreamParams(params);
}

void BurstyStream::beginBlock() {
  rng_ = util::Rng(blockSeed(seed_, position_ / kStreamReseedBlock));
  remaining_ = 0;  // bursts never span a re-seed block
}

RequestEvent BurstyStream::next() {
  if (position_ % kStreamReseedBlock == 0) beginBlock();
  ++position_;
  if (remaining_ <= 0) {
    burstObject_ = static_cast<ObjectId>(
        rng_.nextBelow(static_cast<std::uint64_t>(numObjects_)));
    burstOrigin_ = procs_[static_cast<std::size_t>(
        rng_.nextBelow(static_cast<std::uint64_t>(procs_.size())))];
    remaining_ = burstLength_;
  }
  --remaining_;
  return RequestEvent{burstObject_, burstOrigin_,
                      !rng_.nextBool(readFraction_)};
}

void BurstyStream::generate(std::span<RequestEvent> out) {
  for (RequestEvent& event : out) event = next();
}

void BurstyStream::seek(std::uint64_t position) {
  seekStream(*this, position_, position);
}

DiurnalStream::DiurnalStream(const net::Tree& tree,
                             const StreamParams& params, std::uint64_t seed)
    : procs_(copyProcessors(tree)),
      numObjects_(params.numObjects),
      period_(params.period),
      amplitude_(params.amplitude),
      readFraction_(params.readFraction),
      seed_(seed),
      rng_(seed) {
  checkStreamParams(params);
}

void DiurnalStream::beginBlock() {
  rng_ = util::Rng(blockSeed(seed_, position_ / kStreamReseedBlock));
}

RequestEvent DiurnalStream::next() {
  if (position_ % kStreamReseedBlock == 0) beginBlock();
  const double phase = static_cast<double>(position_ % period_) /
                       static_cast<double>(period_);
  ++position_;
  ObjectId object = 0;
  net::NodeId origin = net::kInvalidNode;
  if (rng_.nextBool(amplitude_)) {
    // Hot window (an eighth of each space) centred on the current phase,
    // wrapping; load migrates between regions over the day.
    const auto procWindow =
        std::max<std::uint64_t>(1, procs_.size() / 8);
    const auto objWindow = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(numObjects_) / 8);
    const auto procBase = static_cast<std::uint64_t>(
        phase * static_cast<double>(procs_.size()));
    const auto objBase = static_cast<std::uint64_t>(
        phase * static_cast<double>(numObjects_));
    origin = procs_[static_cast<std::size_t>(
        (procBase + rng_.nextBelow(procWindow)) % procs_.size())];
    object = static_cast<ObjectId>(
        (objBase + rng_.nextBelow(objWindow)) %
        static_cast<std::uint64_t>(numObjects_));
  } else {
    origin = procs_[static_cast<std::size_t>(
        rng_.nextBelow(static_cast<std::uint64_t>(procs_.size())))];
    object = static_cast<ObjectId>(
        rng_.nextBelow(static_cast<std::uint64_t>(numObjects_)));
  }
  return RequestEvent{object, origin, !rng_.nextBool(readFraction_)};
}

void DiurnalStream::generate(std::span<RequestEvent> out) {
  for (RequestEvent& event : out) event = next();
}

void DiurnalStream::seek(std::uint64_t position) {
  seekStream(*this, position_, position);
}

PhaseShiftStream::PhaseShiftStream(const net::Tree& tree,
                                   const StreamParams& params,
                                   std::uint64_t seed)
    : procs_(copyProcessors(tree)),
      popularity_(streamZipfWeights(params)),
      numObjects_(params.numObjects),
      burstLength_(params.burstLength),
      burstReadFraction_(params.readFraction),
      phaseLength_(params.phaseLength),
      seed_(seed),
      rng_(seed) {}

void PhaseShiftStream::beginBlock() {
  rng_ = util::Rng(blockSeed(seed_, position_ / kStreamReseedBlock));
  remaining_ = 0;  // bursts never span a re-seed block
}

RequestEvent PhaseShiftStream::next() {
  if (position_ % kStreamReseedBlock == 0) beginBlock();
  const int regime = regimeAt(position_, phaseLength_);
  const bool regimeStart = position_ % phaseLength_ == 0;
  ++position_;
  if (regimeStart) remaining_ = 0;  // never carry a burst across regimes
  if (regime == 2) {
    // Ping-pong regime: bursts pinned to one (object, origin) pair.
    if (remaining_ <= 0) {
      burstObject_ = static_cast<ObjectId>(
          rng_.nextBelow(static_cast<std::uint64_t>(numObjects_)));
      burstOrigin_ = procs_[static_cast<std::size_t>(
          rng_.nextBelow(static_cast<std::uint64_t>(procs_.size())))];
      remaining_ = burstLength_;
    }
    --remaining_;
    return RequestEvent{burstObject_, burstOrigin_,
                        !rng_.nextBool(burstReadFraction_)};
  }
  // Skew (0) and churn (1) share the Zipf popularity law and uniform
  // origins; only the read/write mix flips.
  const double readFraction =
      regime == 0 ? kSkewReadFraction : kChurnReadFraction;
  const auto object = static_cast<ObjectId>(popularity_.sample(rng_));
  const net::NodeId origin = procs_[static_cast<std::size_t>(
      rng_.nextBelow(static_cast<std::uint64_t>(procs_.size())))];
  return RequestEvent{object, origin, !rng_.nextBool(readFraction)};
}

void PhaseShiftStream::generate(std::span<RequestEvent> out) {
  for (RequestEvent& event : out) event = next();
}

void PhaseShiftStream::seek(std::uint64_t position) {
  seekStream(*this, position_, position);
}

Workload generateAdversarial(const net::Tree& tree, const GenParams& params,
                             util::Rng& rng) {
  checkParams(params);
  Workload w(params.numObjects, tree.nodeCount());
  const auto procs = tree.processors();
  for (ObjectId x = 0; x < params.numObjects; ++x) {
    // Two to four writers with heavy, nearly balanced write contention and
    // a sprinkling of reads elsewhere: maximises κ_x pressure on the
    // deletion and mapping steps.
    const int writers = 2 + static_cast<int>(rng.nextBelow(3));
    const Count weight =
        std::max<Count>(1, params.requestsPerProcessor) * 4;
    for (int i = 0; i < writers; ++i) {
      const net::NodeId p = procs[static_cast<std::size_t>(
          rng.nextBelow(static_cast<std::uint64_t>(procs.size())))];
      w.addWrites(x, p, weight + static_cast<Count>(rng.nextBelow(7)));
    }
    for (const net::NodeId p : procs) {
      if (rng.nextBool(0.3)) {
        w.addReads(x, p, 1 + static_cast<Count>(rng.nextBelow(4)));
      }
    }
  }
  return w;
}

}  // namespace hbn::workload
