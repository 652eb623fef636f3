#include "hbn/workload/serialize.h"

#include <charconv>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace hbn::workload {

namespace {

void appendInt(std::string& out, std::int64_t value) {
  char buf[24];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ptr);
}

}  // namespace

std::string toText(const Workload& load) {
  // Built with to_chars into one reserved string rather than through an
  // ostream (per-value operator<< was most of its cost). The bytes
  // produced are identical to the ostream form.
  std::string out;
  out.reserve(64 + static_cast<std::size_t>(load.numObjects()) *
                       static_cast<std::size_t>(load.numNodes()) * 16);
  out += "hbn-workload v1\ndims ";
  appendInt(out, load.numObjects());
  out += ' ';
  appendInt(out, load.numNodes());
  out += '\n';
  for (ObjectId x = 0; x < load.numObjects(); ++x) {
    for (net::NodeId v = 0; v < load.numNodes(); ++v) {
      if (load.reads(x, v) > 0) {
        out += "read ";
        appendInt(out, x);
        out += ' ';
        appendInt(out, v);
        out += ' ';
        appendInt(out, load.reads(x, v));
        out += '\n';
      }
      if (load.writes(x, v) > 0) {
        out += "write ";
        appendInt(out, x);
        out += ' ';
        appendInt(out, v);
        out += ' ';
        appendInt(out, load.writes(x, v));
        out += '\n';
      }
    }
  }
  return out;
}

void writeText(const Workload& load, std::ostream& os) { os << toText(load); }

Workload parseText(std::string_view text) {
  std::istringstream in{std::string(text)};
  std::string line;
  if (!std::getline(in, line) || line != "hbn-workload v1") {
    throw std::invalid_argument(
        "parseText: missing 'hbn-workload v1' header");
  }
  if (!std::getline(in, line)) {
    throw std::invalid_argument("parseText: missing dims line");
  }
  std::istringstream dims{line};
  std::string keyword;
  int numObjects = 0;
  int numNodes = 0;
  if (!(dims >> keyword >> numObjects >> numNodes) || keyword != "dims") {
    throw std::invalid_argument("parseText: malformed dims line");
  }
  Workload load(numObjects, numNodes);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    std::istringstream ls{line};
    ObjectId x = 0;
    net::NodeId v = 0;
    Count count = 0;
    if (!(ls >> keyword >> x >> v >> count)) {
      throw std::invalid_argument("parseText: malformed entry line");
    }
    if (keyword == "read") {
      load.addReads(x, v, count);
    } else if (keyword == "write") {
      load.addWrites(x, v, count);
    } else {
      throw std::invalid_argument("parseText: unknown keyword '" + keyword +
                                  "'");
    }
  }
  return load;
}

void encodeRows(const Workload& load, util::ByteWriter& out) {
  for (ObjectId x = 0; x < load.numObjects(); ++x) {
    const std::span<const Count> reads = load.readRow(x);
    const std::span<const Count> writes = load.writeRow(x);
    std::uint64_t nonzero = 0;
    for (std::size_t v = 0; v < reads.size(); ++v) {
      if (reads[v] != 0 || writes[v] != 0) ++nonzero;
    }
    out.varint(nonzero);
    std::size_t next = 0;  // the first node a delta of 0 names
    for (std::size_t v = 0; v < reads.size(); ++v) {
      if (reads[v] == 0 && writes[v] == 0) continue;
      out.varint(v - next);
      out.varint(static_cast<std::uint64_t>(reads[v]));
      out.varint(static_cast<std::uint64_t>(writes[v]));
      next = v + 1;
    }
  }
}

Workload decodeRows(util::ByteReader& in, int numObjects, int numNodes) {
  const auto fail = [](const std::string& why) {
    throw std::invalid_argument("rows: " + why);
  };
  constexpr auto kMaxCount =
      static_cast<std::uint64_t>(std::numeric_limits<Count>::max());
  const auto nodes = static_cast<std::uint64_t>(numNodes);
  Workload load(numObjects, numNodes);
  // Every count, and so every partial sum a consumer forms (object
  // totals, subtree sums, the lower bound's minima), stays below the
  // matrix total, which is kept inside the Count range.
  std::uint64_t total = 0;
  const auto count = [&](const char* what) {
    const std::uint64_t value = in.varint();
    if (value > kMaxCount - total) fail(std::string(what) + " overflows");
    total += value;
    return static_cast<Count>(value);
  };
  for (ObjectId x = 0; x < numObjects; ++x) {
    const std::uint64_t entries = in.varint();
    if (entries > nodes) fail("entry count out of range");
    std::uint64_t next = 0;
    for (std::uint64_t i = 0; i < entries; ++i) {
      const std::uint64_t delta = in.varint();
      if (delta >= nodes - next) fail("node out of range");
      const auto v = static_cast<net::NodeId>(next + delta);
      const Count reads = count("read count");
      const Count writes = count("write count");
      if (reads == 0 && writes == 0) fail("empty entry");
      load.setReads(x, v, reads);
      load.setWrites(x, v, writes);
      next = next + delta + 1;
    }
  }
  return load;
}

void writeTraceHeader(std::ostream& os, int numObjects, int numNodes) {
  if (numObjects < 1 || numNodes < 1) {
    throw std::invalid_argument("writeTraceHeader: positive dims");
  }
  os << "hbn-trace v1\ndims " << numObjects << ' ' << numNodes << '\n';
}

void writeTraceEvent(std::ostream& os, const RequestEvent& event) {
  os << (event.isWrite ? 'w' : 'r') << ' ' << event.object << ' '
     << event.origin << '\n';
}

namespace {

[[noreturn]] void traceFail(std::uint64_t line, const std::string& what) {
  throw std::invalid_argument("trace line " + std::to_string(line) + ": " +
                              what);
}

/// Parses a base-10 int32 starting at text[pos] (after mandatory spaces),
/// advancing pos past it; rejects anything std::from_chars would not
/// consume entirely up to the next space or end of line.
std::int32_t parseTraceInt(const std::string& text, std::size_t& pos,
                           std::uint64_t line) {
  while (pos < text.size() && text[pos] == ' ') ++pos;
  const char* begin = text.data() + pos;
  const char* end = text.data() + text.size();
  std::int32_t value = 0;
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin ||
      (ptr != end && *ptr != ' ')) {
    traceFail(line, "malformed integer in '" + text + "'");
  }
  pos = static_cast<std::size_t>(ptr - text.data());
  return value;
}

}  // namespace

TraceReader::TraceReader(std::istream& in) : in_(&in) {
  std::string line;
  if (!std::getline(in, line) || line != "hbn-trace v1") {
    traceFail(1, "missing 'hbn-trace v1' header");
  }
  if (!std::getline(in, line)) {
    traceFail(2, "missing dims line (truncated trace?)");
  }
  std::istringstream dims{line};
  std::string keyword;
  if (!(dims >> keyword >> numObjects_ >> numNodes_) || keyword != "dims" ||
      numObjects_ < 1 || numNodes_ < 1) {
    traceFail(2, "malformed dims line '" + line + "'");
  }
}

bool TraceReader::next(RequestEvent& out) {
  // Hand-rolled line parse (no istringstream): this is the per-request
  // hot path when serving multi-million-event trace files.
  while (std::getline(*in_, buffer_)) {
    ++line_;
    if (buffer_.empty()) continue;
    const char kind = buffer_[0];
    if (kind != 'r' && kind != 'w') {
      traceFail(line_, "expected 'r' or 'w', got '" + buffer_ + "'");
    }
    if (buffer_.size() < 2 || buffer_[1] != ' ') {
      traceFail(line_, "expected ' ' after the r/w keyword");
    }
    std::size_t pos = 1;
    const std::int32_t object = parseTraceInt(buffer_, pos, line_);
    const std::int32_t node = parseTraceInt(buffer_, pos, line_);
    while (pos < buffer_.size() && buffer_[pos] == ' ') ++pos;
    if (pos != buffer_.size()) {
      traceFail(line_, "trailing content in '" + buffer_ + "'");
    }
    if (object < 0 || object >= numObjects_) {
      traceFail(line_, "object id out of range");
    }
    if (node < 0 || node >= numNodes_) {
      traceFail(line_, "node id out of range");
    }
    out = RequestEvent{object, node, kind == 'w'};
    return true;
  }
  // Distinguish a clean end of trace from a failed read: bad() means
  // the underlying stream lost data (I/O error), which would otherwise
  // masquerade as a short-but-valid trace.
  if (in_->bad()) {
    throw std::runtime_error("trace I/O error after line " +
                             std::to_string(line_));
  }
  return false;
}

}  // namespace hbn::workload
