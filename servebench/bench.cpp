#include "bench.h"

#include <bit>
#include <fstream>
#include <iomanip>
#include <stdexcept>

#include "hbn/net/generators.h"

namespace servebench {

const std::vector<WorkloadSpec>& workloads() {
  // name, stream, objects, policy, epochSize, threads, workers,
  // checkpointEvery
  static const std::vector<WorkloadSpec> table = {
      {"skewed-bulk", "skewed", 1024, "tree-counters", 262144, 2, 0, 0},
      {"phase-adaptive", "phase-shift", 4096, "adaptive", 16384, 2, 0, 16},
      {"sharded-socket", "skewed", 1024, "tree-counters", 131072, 1, 2, 0},
  };
  return table;
}

hbn::net::Tree makeTree() { return hbn::net::makeClusterNetwork(4, 8); }

std::unique_ptr<hbn::serve::RequestStream> makeStream(
    const WorkloadSpec& spec, const hbn::net::Tree& tree, std::uint64_t seed) {
  hbn::workload::StreamParams params;
  params.numObjects = spec.objects;
  return hbn::serve::makeGeneratedStream(spec.stream, tree, params, seed,
                                         spec.requests());
}

std::uint64_t Digest::hash() const {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const hbn::core::Count load : loads) {
    mix(static_cast<std::uint64_t>(load));
  }
  mix(std::bit_cast<std::uint64_t>(congestion));
  mix(static_cast<std::uint64_t>(replications));
  mix(static_cast<std::uint64_t>(invalidations));
  return h;
}

std::vector<hbn::core::Count> loadVector(const hbn::core::LoadMap& loads) {
  const auto view = loads.edgeLoads();
  return {view.begin(), view.end()};
}

std::int64_t SpanRecorder::add(const char* name, Clock::time_point start,
                               Clock::time_point end, std::int64_t parent,
                               int track, std::uint64_t calls) {
  spans_.push_back({name, start, end, parent, track, calls});
  return static_cast<std::int64_t>(spans_.size()) - 1;
}

void SpanRecorder::setEnd(std::int64_t id, Clock::time_point end) {
  spans_.at(static_cast<std::size_t>(id)).end = end;
}

void SpanRecorder::writeChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace " + path);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  const auto micros = [](Clock::duration d) {
    return std::chrono::duration<double, std::micro>(d).count();
  };
  static const char* const kTrackNames[] = {"serve", "ingest", "replay"};
  out << std::fixed << std::setprecision(3) << "{\"traceEvents\":[";
  for (int t = 0; t < 3; ++t) {
    out << (t == 0 ? "" : ",")
        << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << t
        << ",\"args\":{\"name\":\"" << kTrackNames[t] << "\"}}";
  }
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << ",\n{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":"
        << s.track << ",\"ts\":" << micros(s.start - origin)
        << ",\"dur\":" << micros(s.end - s.start) << ",\"args\":{\"id\":" << i
        << ",\"parent\":" << s.parent << ",\"calls\":" << s.calls << "}}";
  }
  out << "\n]}\n";
  if (!out) throw std::runtime_error("cannot write trace " + path);
}

}  // namespace servebench
