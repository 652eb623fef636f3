#include "hbn/shard/wire.h"

#include <limits>
#include <stdexcept>

namespace hbn::shard {

const char* frameTypeName(FrameType type) noexcept {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello-ack";
    case FrameType::kEpoch: return "epoch";
    case FrameType::kStats: return "stats";
    case FrameType::kDecide: return "decide";
    case FrameType::kMigrate: return "migrate";
    case FrameType::kFin: return "fin";
    case FrameType::kFinAck: return "fin-ack";
    case FrameType::kError: return "error";
  }
  return "unknown";
}

std::string HelloMsg::encode() const {
  util::ByteWriter w;
  w.u32(protocolVersion);
  w.i32(shardId);
  w.i32(shardCount);
  w.i32(numObjects);
  w.u64(epochSize);
  w.i32(threads);
  w.u8(partitionKind);
  w.u64(partitionSeed);
  w.str(policySpec);
  w.str(treeText);
  return w.take();
}

HelloMsg HelloMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  HelloMsg m;
  m.protocolVersion = r.u32();
  m.shardId = r.i32();
  m.shardCount = r.i32();
  m.numObjects = r.i32();
  m.epochSize = r.u64();
  m.threads = r.i32();
  m.partitionKind = r.u8();
  m.partitionSeed = r.u64();
  m.policySpec = r.str();
  m.treeText = r.str();
  r.finish();
  return m;
}

std::string EpochMsg::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  w.u64(events.size());
  for (const workload::RequestEvent& ev : events) {
    w.i32(ev.object);
    w.i32(ev.origin);
    w.u8(ev.isWrite ? 1 : 0);
  }
  return w.take();
}

EpochMsg EpochMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  EpochMsg m;
  m.epoch = r.u64();
  const std::uint64_t count = r.u64();
  // 9 bytes per event: a count that cannot fit the payload is corrupt.
  if (count > payload.size() / 9) {
    throw std::invalid_argument("wire: epoch event count exceeds payload");
  }
  m.events.resize(static_cast<std::size_t>(count));
  for (workload::RequestEvent& ev : m.events) {
    ev.object = r.i32();
    ev.origin = r.i32();
    ev.isWrite = r.u8() != 0;
  }
  r.finish();
  return m;
}

namespace {

void encodeLoads(util::ByteWriter& w, const std::vector<std::int64_t>& loads) {
  w.u64(loads.size());
  for (const std::int64_t v : loads) w.i64(v);
}

std::vector<std::int64_t> decodeLoads(util::ByteReader& r,
                                      std::size_t payloadSize) {
  const std::uint64_t count = r.u64();
  if (count > payloadSize / 8) {
    throw std::invalid_argument("wire: load vector length exceeds payload");
  }
  std::vector<std::int64_t> loads(static_cast<std::size_t>(count));
  for (std::int64_t& v : loads) v = r.i64();
  return loads;
}

}  // namespace

std::string StatsMsg::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  w.f64(lowerBound);
  w.f64(busyMs);
  w.u8(wantsHandoff);
  w.u8(migratable);
  w.i64(replications);
  w.i64(invalidations);
  encodeLoads(w, serveLoads);
  return w.take();
}

StatsMsg StatsMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  StatsMsg m;
  m.epoch = r.u64();
  m.lowerBound = r.f64();
  m.busyMs = r.f64();
  m.wantsHandoff = r.u8();
  m.migratable = r.u8();
  m.replications = r.i64();
  m.invalidations = r.i64();
  m.serveLoads = decodeLoads(r, payload.size());
  r.finish();
  return m;
}

std::string DecideMsg::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  w.u8(replace);
  return w.take();
}

DecideMsg DecideMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  DecideMsg m;
  m.epoch = r.u64();
  m.replace = r.u8();
  r.finish();
  return m;
}

std::string MigrateMsg::encode() const {
  util::ByteWriter w;
  w.u64(epoch);
  w.f64(busyMs);
  encodeLoads(w, loads);
  return w.take();
}

MigrateMsg MigrateMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  MigrateMsg m;
  m.epoch = r.u64();
  m.busyMs = r.f64();
  m.loads = decodeLoads(r, payload.size());
  r.finish();
  return m;
}

std::string FinAckMsg::encode() const {
  util::ByteWriter w;
  w.u64(requests);
  w.f64(busyMs);
  w.i64(replications);
  w.i64(invalidations);
  w.u64(policyMetrics.size());
  for (const auto& [key, value] : policyMetrics) {
    w.str(key);
    w.f64(value);
  }
  return w.take();
}

FinAckMsg FinAckMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  FinAckMsg m;
  m.requests = r.u64();
  m.busyMs = r.f64();
  m.replications = r.i64();
  m.invalidations = r.i64();
  const std::uint64_t count = r.u64();
  if (count > payload.size() / 16) {
    throw std::invalid_argument("wire: metric count exceeds payload");
  }
  for (std::uint64_t i = 0; i < count; ++i) {
    std::string key = r.str();
    const double value = r.f64();
    m.policyMetrics.emplace(std::move(key), value);
  }
  r.finish();
  return m;
}

std::string ErrorMsg::encode() const {
  util::ByteWriter w;
  w.u32(stage);
  w.u64(epoch);
  w.str(cause);
  return w.take();
}

ErrorMsg ErrorMsg::decode(std::string_view payload) {
  util::ByteReader r(payload);
  ErrorMsg m;
  m.stage = r.u32();
  m.epoch = r.u64();
  m.cause = r.str();
  r.finish();
  return m;
}

}  // namespace hbn::shard
