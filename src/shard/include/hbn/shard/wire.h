// Wire format of the sharded serving protocol.
//
// Every message between the ShardCoordinator and a ShardWorker travels
// as one framed, checksummed byte string:
//
//   +--------+--------+------------+---------....---------+----------+
//   | magic  | type   | payloadLen | payload              | checksum |
//   | u32    | u32    | u64        | payloadLen bytes     | u64      |
//   +--------+--------+------------+---------....---------+----------+
//
// All integers are little-endian. `magic` is kFrameMagic ("HBNF");
// `checksum` is FNV-1a over the payload bytes. The length prefix is
// bounded by kMaxFramePayload so a corrupted prefix cannot drive an
// unbounded allocation. Malformed frames (bad magic, oversized prefix,
// truncated payload, checksum mismatch) surface as
// serve::Error{Stage::Frame}; a connection that closes cleanly between
// frames is Stage::Peer (see hbn/shard/transport.h).
//
// Payloads are written with the shared byte codec (util::ByteWriter /
// util::ByteReader, hbn/util/bytes.h): fixed-width little-endian
// integers, doubles as their IEEE-754 bit pattern, strings as u64
// length + bytes. Message structs (Hello, Epoch, Stats, ...) each
// provide encode()/decode; decode throws std::invalid_argument on
// truncated or out-of-range input, which the transport layer
// attributes to Stage::Frame.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "hbn/util/bytes.h"
#include "hbn/workload/workload.h"

namespace hbn::shard {

inline constexpr std::uint32_t kFrameMagic = 0x48424E46;  // "HBNF"
inline constexpr std::uint64_t kMaxFramePayload = 1ULL << 28;
inline constexpr std::uint32_t kProtocolVersion = 1;
/// Frame header bytes (magic + type + payloadLen) and trailer bytes
/// (checksum).
inline constexpr std::size_t kFrameHeaderBytes = 16;
inline constexpr std::size_t kFrameTrailerBytes = 8;

/// Message kinds, in protocol order. One serve run is:
///   Hello -> HelloAck, then per epoch Epoch -> Stats -> Decide
///   [-> Migrate when Decide.replace], then Fin -> FinAck.
/// Either side may send Error instead of its next expected frame.
enum class FrameType : std::uint32_t {
  kHello = 1,
  kHelloAck = 2,
  kEpoch = 3,
  kStats = 4,
  kDecide = 5,
  kMigrate = 6,
  kFin = 7,
  kFinAck = 8,
  kError = 9,
};

[[nodiscard]] const char* frameTypeName(FrameType type) noexcept;

/// Coordinator -> worker: the run configuration. The worker rebuilds
/// the full serving stack (tree, policy, partition) from this one
/// message, so a worker process needs nothing but its socket.
struct HelloMsg {
  std::uint32_t protocolVersion = kProtocolVersion;
  std::int32_t shardId = 0;
  std::int32_t shardCount = 1;
  std::int32_t numObjects = 0;
  std::uint64_t epochSize = 0;
  std::int32_t threads = 1;
  std::uint8_t partitionKind = 0;  ///< Partition::Kind as u8
  std::uint64_t partitionSeed = 0;
  std::string policySpec;
  std::string treeText;  ///< net::toText of the serving topology

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static HelloMsg decode(std::string_view payload);
};

/// Coordinator -> worker: one full epoch, broadcast to every shard.
/// Workers aggregate all events (the full-matrix invariant that keeps
/// handoff placements shard-count independent) but serve only the
/// objects they own.
struct EpochMsg {
  std::uint64_t epoch = 0;
  std::vector<workload::RequestEvent> events;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static EpochMsg decode(std::string_view payload);
};

/// Worker -> coordinator after serving an epoch: the convergecast leg
/// of the epoch barrier. Serve loads are this epoch's deltas for the
/// worker's owned objects; lowerBound is the worker's full-matrix
/// analytic bound (bit-identical across shards — the coordinator
/// asserts it as a determinism cross-check).
struct StatsMsg {
  std::uint64_t epoch = 0;
  double lowerBound = 0.0;
  double busyMs = 0.0;
  std::uint8_t wantsHandoff = 0;
  std::uint8_t migratable = 0;
  std::int64_t replications = 0;
  std::int64_t invalidations = 0;
  std::vector<std::int64_t> serveLoads;  ///< per-edge delta

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static StatsMsg decode(std::string_view payload);
};

/// Coordinator -> worker: the broadcast leg of the barrier — whether
/// the §4 re-placement wave runs this epoch.
struct DecideMsg {
  std::uint64_t epoch = 0;
  std::uint8_t replace = 0;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static DecideMsg decode(std::string_view payload);
};

/// Worker -> coordinator after applying a re-placement: the migration
/// traffic charged for its owned objects.
struct MigrateMsg {
  std::uint64_t epoch = 0;
  double busyMs = 0.0;
  std::vector<std::int64_t> loads;  ///< per-edge migration delta

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static MigrateMsg decode(std::string_view payload);
};

/// Worker -> coordinator at end of stream: per-shard summary for the
/// aggregate report's breakdown.
struct FinAckMsg {
  std::uint64_t requests = 0;  ///< events served (owned objects)
  double busyMs = 0.0;         ///< total busy time across epochs
  std::int64_t replications = 0;
  std::int64_t invalidations = 0;
  std::map<std::string, double> policyMetrics;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static FinAckMsg decode(std::string_view payload);
};

/// Either direction: a stage failure shipped with its serve::Error
/// attribution intact, so exit codes survive the wire.
struct ErrorMsg {
  std::uint32_t stage = 0;  ///< serve::Stage as u32
  std::uint64_t epoch = 0;
  std::string cause;

  [[nodiscard]] std::string encode() const;
  [[nodiscard]] static ErrorMsg decode(std::string_view payload);
};

}  // namespace hbn::shard
