#include "hbn/serve/checkpoint.h"

#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "hbn/util/bytes.h"

namespace hbn::serve {
namespace {

/// The first line of every checkpoint: the magic, then the version
/// digits and a newline — readable with `head -1`, and shared with the
/// v1 text format, so a v1 file is named as such rather than garbage.
constexpr std::string_view kMagic = "hbn-checkpoint v";
constexpr std::string_view kVersion = "2";
constexpr const char* kLatest = "LATEST";
constexpr auto kMaxCount =
    static_cast<std::uint64_t>(std::numeric_limits<core::Count>::max());
constexpr auto kMaxInt =
    static_cast<std::uint64_t>(std::numeric_limits<int>::max());

[[noreturn]] void parseFail(const std::string& why) {
  throw std::invalid_argument("checkpoint: " + why);
}

std::string encode(const CheckpointData& data) {
  util::ByteWriter w;
  w.reserve(data.rows.size() + data.policyState.size() +
            data.policySpec.size() + data.loads.size() * 20 + 256);
  w.raw(kMagic);
  w.raw(kVersion);
  w.raw("\n");
  w.block(data.policySpec);
  for (const int dim : {data.numObjects, data.numNodes, data.numEdges}) {
    w.varint(static_cast<std::uint64_t>(dim));
  }
  for (const std::uint64_t v :
       {data.servedTotal, data.epochs, data.replacements,
        static_cast<std::uint64_t>(data.replications),
        static_cast<std::uint64_t>(data.invalidations), data.passesBegun,
        data.degradedEpochs, data.handoffRetries,
        data.checkpointsWritten}) {
    w.varint(v);
  }
  // Raw bit patterns: the doubles round-trip bit for bit, which the
  // drift trigger's growth deltas need for digest identity.
  w.f64(data.serveCongestionMark);
  w.f64(data.lowerBoundMark);
  w.varint(data.epochSize);
  w.f64(data.replaceDrift);
  for (const std::vector<core::Count>* loads :
       {&data.loads, &data.serveLoads}) {
    if (loads->size() != static_cast<std::size_t>(data.numEdges)) {
      throw std::invalid_argument("checkpoint: load vector size != numEdges");
    }
    for (const core::Count v : *loads) {
      w.varint(static_cast<std::uint64_t>(v));
    }
  }
  w.block(data.rows);
  w.block(data.policyState);
  w.u64(util::fnv1a(w.view()));
  return w.take();
}

/// Reads the whole remaining stream into one exactly sized buffer (a
/// seekable stream — file or string — is measured first; anything else
/// is read in chunks).
std::vector<char> slurp(std::istream& in) {
  std::vector<char> bytes;
  const std::istream::pos_type start = in.tellg();
  if (start != std::istream::pos_type(-1) && in.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in.tellg();
    in.seekg(start);
    bytes.resize(static_cast<std::size_t>(end - start));
    in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    bytes.resize(static_cast<std::size_t>(in.gcount()));
    return bytes;
  }
  in.clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    bytes.insert(bytes.end(), chunk, chunk + in.gcount());
  }
  return bytes;
}

/// Parses the fields after the version line; throws
/// std::invalid_argument (unprefixed) on any malformed field.
void decodeBody(util::ByteReader& r, CheckpointData& data) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument(why);
  };
  data.policySpec = std::string(r.block());
  data.numObjects = static_cast<int>(r.varint(kMaxInt, "numObjects"));
  data.numNodes = static_cast<int>(r.varint(kMaxInt, "numNodes"));
  data.numEdges = static_cast<int>(r.varint(kMaxInt, "numEdges"));
  if (data.numObjects < 1 || data.numNodes < 1 ||
      data.numEdges != data.numNodes - 1) {
    fail("bad dims (a tree over numNodes nodes has numNodes - 1 edges)");
  }
  data.servedTotal = r.varint();
  data.epochs = r.varint();
  data.replacements = r.varint();
  data.replications =
      static_cast<core::Count>(r.varint(kMaxCount, "replications"));
  data.invalidations =
      static_cast<core::Count>(r.varint(kMaxCount, "invalidations"));
  data.passesBegun = r.varint();
  data.degradedEpochs = r.varint();
  data.handoffRetries = r.varint();
  data.checkpointsWritten = r.varint();
  data.serveCongestionMark = r.f64();
  data.lowerBoundMark = r.f64();
  data.epochSize = r.varint();
  if (data.epochSize < 1) fail("epoch size must be >= 1");
  data.replaceDrift = r.f64();
  // Each load is at least one byte: check the bytes are there before
  // sizing the vectors.
  const auto edges = static_cast<std::size_t>(data.numEdges);
  if (2 * edges > r.remaining()) fail("load vectors exceed the input");
  for (std::vector<core::Count>* loads : {&data.loads, &data.serveLoads}) {
    loads->resize(edges);
    for (core::Count& v : *loads) {
      v = static_cast<core::Count>(r.varint(kMaxCount, "edge load"));
    }
  }
  data.rows = std::string(r.block());
  data.policyState = std::string(r.block());
  r.finish();
}

}  // namespace

void writeCheckpoint(const CheckpointData& data, std::ostream& os) {
  const std::string bytes = encode(data);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

CheckpointData readCheckpoint(std::istream& in) {
  // Slurp, check the version line, verify the trailing checksum, then
  // parse the body — so truncation and corruption both fail before any
  // field is half-applied.
  const std::vector<char> buffer = slurp(in);
  const std::string_view bytes(buffer.data(), buffer.size());
  if (!bytes.starts_with(kMagic)) parseFail("not a checkpoint file");
  const std::size_t eol = bytes.find('\n', kMagic.size());
  if (eol == std::string_view::npos || eol - kMagic.size() > 8) {
    parseFail("not a checkpoint file (no version line)");
  }
  const std::string_view version =
      bytes.substr(kMagic.size(), eol - kMagic.size());
  if (version != kVersion) {
    parseFail("unsupported version 'v" + std::string(version) + "'");
  }
  constexpr std::size_t kTrailer = sizeof(std::uint64_t);
  if (bytes.size() < eol + 1 + kTrailer) {
    parseFail("truncated (no checksum)");
  }
  const std::string_view body = bytes.substr(0, bytes.size() - kTrailer);
  util::ByteReader trailer(bytes.substr(body.size()));
  if (trailer.u64() != util::fnv1a(body)) {
    parseFail("checksum mismatch (corrupted or truncated snapshot)");
  }
  CheckpointData data;
  util::ByteReader r(body.substr(eol + 1));
  try {
    decodeBody(r, data);
  } catch (const std::invalid_argument& e) {
    parseFail(e.what());
  }
  return data;
}

std::string writeCheckpointFile(const CheckpointData& data,
                                const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    throw std::runtime_error("cannot create checkpoint dir " + dir + ": " +
                             ec.message());
  }
  const std::string name =
      "checkpoint-" + std::to_string(data.epochs) + ".hbn";
  const fs::path final = fs::path(dir) / name;
  const fs::path tmp = fs::path(dir) / (name + ".tmp");
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open " + tmp.string() +
                               " for writing");
    }
    writeCheckpoint(data, out);
    out.flush();
    if (!out) {
      throw std::runtime_error("write failed for " + tmp.string());
    }
  }
  fs::rename(tmp, final, ec);
  if (ec) {
    throw std::runtime_error("cannot publish " + final.string() + ": " +
                             ec.message());
  }
  // LATEST via the same rename dance: readers either see the old
  // pointer or the new one, never a torn write.
  const fs::path latestTmp = fs::path(dir) / (std::string(kLatest) + ".tmp");
  {
    std::ofstream out(latestTmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("cannot open " + latestTmp.string());
    }
    out << name << '\n';
  }
  fs::rename(latestTmp, fs::path(dir) / kLatest, ec);
  if (ec) {
    throw std::runtime_error("cannot update LATEST in " + dir + ": " +
                             ec.message());
  }
  return final.string();
}

CheckpointData readCheckpointFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open checkpoint " + path);
  return readCheckpoint(in);
}

std::string latestCheckpointPath(const std::string& dir) {
  namespace fs = std::filesystem;
  std::ifstream in(fs::path(dir) / kLatest);
  std::string name;
  if (!in || !(in >> name) || name.empty()) {
    throw std::runtime_error("no checkpoint in " + dir +
                             " (missing or empty LATEST)");
  }
  return (fs::path(dir) / name).string();
}

}  // namespace hbn::serve
