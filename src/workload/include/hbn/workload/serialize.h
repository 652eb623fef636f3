// Text serialisation for workloads (round-trips exactly):
//
//   hbn-workload v1
//   dims <numObjects> <numNodes>
//   read <object> <node> <count>
//   write <object> <node> <count>
//
// Zero entries are omitted; read/write lines may appear in any order and
// accumulate.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "hbn/util/bytes.h"
#include "hbn/workload/workload.h"

namespace hbn::workload {

/// Writes the text representation.
void writeText(const Workload& load, std::ostream& os);

/// Convenience wrapper for writeText.
[[nodiscard]] std::string toText(const Workload& load);

/// Parses the text representation; throws std::invalid_argument on any
/// syntax or range error.
[[nodiscard]] Workload parseText(std::string_view text);

// ---------------------------------------------------------------------------
// Binary rows (the rows block of an epoch-boundary checkpoint,
// hbn/serve/checkpoint.h). Per object, in id order, as varints:
//
//   <nonzero nodes n> then n × (<node delta> <reads> <writes>)
//
// A node is a nonzero entry when its reads or writes are; the delta is
// the gap to the previous entry's node (the first entry's is its node
// id). The dims are not written: the decoder is handed them, so it
// allocates only the matrix its caller already sized.
// ---------------------------------------------------------------------------

/// Appends `load`'s rows to `out`.
void encodeRows(const Workload& load, util::ByteWriter& out);

/// Decodes rows written by encodeRows into a numObjects × numNodes
/// workload. Throws std::invalid_argument on a truncated row, an entry
/// count above numNodes, a node out of range, an empty entry, or counts
/// whose sum over the matrix exceeds the Count range.
[[nodiscard]] Workload decodeRows(util::ByteReader& in, int numObjects,
                                  int numNodes);

// ---------------------------------------------------------------------------
// Request traces (round-trip exactly, order-preserving):
//
//   hbn-trace v1
//   dims <numObjects> <numNodes>
//   r <object> <node>
//   w <object> <node>
//
// One line per request event, in arrival order. The reader is streaming —
// it pulls events one at a time off the istream, so traces of hundreds of
// millions of requests are served without ever materialising in memory.
// ---------------------------------------------------------------------------

/// Writes the trace header; follow with writeTraceEvent per event.
void writeTraceHeader(std::ostream& os, int numObjects, int numNodes);

/// Writes one event line.
void writeTraceEvent(std::ostream& os, const RequestEvent& event);

/// Incremental reader over an open istream. Validates the header in the
/// constructor and every event line against the declared dims; throws
/// std::invalid_argument (with a line number) on any syntax/range error.
class TraceReader {
 public:
  explicit TraceReader(std::istream& in);

  [[nodiscard]] int numObjects() const noexcept { return numObjects_; }
  [[nodiscard]] int numNodes() const noexcept { return numNodes_; }

  /// Reads the next event into `out`; false once the trace is exhausted.
  [[nodiscard]] bool next(RequestEvent& out);

 private:
  std::istream* in_;
  int numObjects_ = 0;
  int numNodes_ = 0;
  std::uint64_t line_ = 2;  ///< last header line; event lines count from 3
  std::string buffer_;      ///< reused per line, no per-event allocation
};

}  // namespace hbn::workload
