// servebench — the serving benchmark's host binary.
//
//   servebench --workload NAME --seed N --seconds S --trace 0|1
//              [--out-dir DIR] [--commit ID]
//
// Serves one named workload (bench.cpp's table) through the public
// entry points hbn_serve uses — EpochServer::serve, or
// ShardCoordinator::serve over makeExecCluster — repeatedly for S
// seconds, closed loop: the engine pulls the next epoch from the seeded
// generator whenever an ingest slot frees up. Every repetition's final
// digest is gated against a reference serve of the same seed (the
// single-process engine at threads 1), computed outside the timed
// region. With --trace 0 it prints the end-to-end metrics; with
// --trace 1 it alternates plain and fill-timed repetitions, then runs
// the single-thread stage replay, and prints the per-layer metrics plus
// a Chrome trace file in DIR. The last stdout line is the result JSON;
// the line before it stamps the run (cpus, threads/workers used,
// compiler, build type, seed, commit).
//
// Because the exec cluster re-executes this binary as its shard
// workers, main hands control to shard::maybeRunWorkerMain first.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <iomanip>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/process.h"
#include "hbn/util/stats.h"

namespace servebench {
namespace {

namespace serve = hbn::serve;
namespace shard = hbn::shard;
using hbn::workload::RequestEvent;
using Metrics = std::map<std::string, double>;

/// Setup-only builds per run; setup_s is their median. Repetitions time
/// their own setup too, but only for the log: a setup right after a
/// serve runs on colder caches than one in this loop, and mixing the
/// two populations would make the median jump between them.
constexpr int kSetupSamples = 101;
/// In-memory checkpoint writes timed per traced run.
constexpr int kCheckpointSamples = 5;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string outDir = ".";
  std::string commit = "unknown";
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out-dir") {
      args.outDir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!haveWorkload) throw std::invalid_argument("--workload is required");
  return args;
}

const WorkloadSpec& findWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return spec;
  }
  std::string known;
  for (const WorkloadSpec& spec : workloads()) known += std::string(" ") + spec.name;
  throw std::invalid_argument("unknown workload '" + name + "'; known:" + known);
}

/// Threads and workers actually used: threads + workers never exceed
/// the CPUs this process may run on (the coordinator counts as one).
struct Shape {
  int cpus = 1;
  int threads = 1;
  int workers = 0;
  bool capped = false;
};

Shape resolveShape(const WorkloadSpec& spec) {
  Shape shape;
  cpu_set_t set;
  CPU_ZERO(&set);
  shape.cpus = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? std::max(1, CPU_COUNT(&set))
                   : 1;
  if (spec.workers > 0) {
    shape.threads = spec.threads;
    shape.workers =
        std::min(spec.workers, std::max(1, shape.cpus - spec.threads));
  } else {
    shape.threads = std::min(spec.threads, shape.cpus);
  }
  shape.capped = shape.threads != spec.threads || shape.workers != spec.workers;
  return shape;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return hbn::util::percentileSorted(values, 50.0);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return hbn::util::percentileSorted(values, q);
}

double seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double millis(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Pass-through stream that stamps every fill chunk on arrival and
/// times the generator call: the real run's fill cost, and the arrival
/// stamps the sharded workload's request latency is rebuilt from.
/// Called only from the engine's ingest thread while serve() runs.
class TimedStream final : public serve::RequestStream {
 public:
  TimedStream(serve::RequestStream& inner, SpanRecorder* spans,
              std::int64_t parent)
      : inner_(inner), spans_(spans), parent_(parent) {}

  [[nodiscard]] std::size_t fill(std::span<RequestEvent> out) override {
    const auto start = Clock::now();
    const std::size_t n = inner_.fill(out);
    const auto end = Clock::now();
    fillNs_ += std::chrono::duration<double, std::nano>(end - start).count();
    if (n > 0) {
      consumed_ += n;
      stamps_.push_back({end, consumed_});
      if (spans_ != nullptr) {
        spans_->add("fill", start, end, parent_, SpanRecorder::kIngest, n);
      }
    }
    return n;
  }

  struct Stamp {
    Clock::time_point at;
    std::uint64_t consumed;  ///< events handed out up to this chunk
  };
  [[nodiscard]] const std::vector<Stamp>& stamps() const { return stamps_; }
  [[nodiscard]] double fillNs() const { return fillNs_; }

 private:
  serve::RequestStream& inner_;
  SpanRecorder* spans_;
  std::int64_t parent_;
  std::vector<Stamp> stamps_;
  std::uint64_t consumed_ = 0;
  double fillNs_ = 0.0;
};

/// In-system request latency of a sharded run, rebuilt from outside:
/// the coordinator handles epochs strictly in order and starts epoch k
/// once it is filled and epoch k-1 is done, so epoch k completes at
/// max(fill end of k, completion of k-1) + its logged wall time. Each
/// chunk's sample is its epoch's completion minus its arrival stamp —
/// the same definition ServeReport uses, which has no sharded twin.
std::vector<double> rebuildLatencies(
    const std::vector<TimedStream::Stamp>& stamps,
    const std::vector<serve::EpochRecord>& log, Clock::time_point serveStart,
    std::size_t epochSize) {
  std::vector<Clock::time_point> filled(log.size(), serveStart);
  for (const TimedStream::Stamp& s : stamps) {
    const std::size_t epoch = (s.consumed - 1) / epochSize;
    if (epoch < filled.size()) filled[epoch] = std::max(filled[epoch], s.at);
  }
  std::vector<Clock::time_point> done(log.size());
  Clock::time_point previous = serveStart;
  for (std::size_t k = 0; k < log.size(); ++k) {
    done[k] = std::max(filled[k], previous) +
              std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double, std::milli>(log[k].wallMs));
    previous = done[k];
  }
  std::vector<double> samples;
  samples.reserve(stamps.size());
  for (const TimedStream::Stamp& s : stamps) {
    const std::size_t epoch = (s.consumed - 1) / epochSize;
    if (epoch < done.size()) samples.push_back(millis(s.at, done[epoch]));
  }
  return samples;
}

/// Everything one serve needs, built in the timed setup. Members are
/// destroyed in reverse order: the coordinator before the cluster it
/// borrows links from, the cluster (reaping any live worker) before the
/// tree.
struct Instance {
  std::unique_ptr<hbn::net::Tree> tree;
  std::unique_ptr<hbn::net::RootedTree> rooted;
  std::unique_ptr<serve::RequestStream> stream;
  std::unique_ptr<serve::EpochServer> server;
  std::unique_ptr<shard::ShardCluster> cluster;
  std::unique_ptr<shard::ShardCoordinator> coordinator;
};

serve::ServeOptions serveOptions(const WorkloadSpec& spec, int threads) {
  serve::ServeOptions options;  // defaults everywhere else
  options.epochSize = spec.epochSize;
  options.threads = threads;
  options.policy = spec.policy;
  return options;
}

Instance setUp(const WorkloadSpec& spec, const Shape& shape,
               std::uint64_t seed, const std::string& checkpointDir) {
  Instance inst;
  inst.tree = std::make_unique<hbn::net::Tree>(makeTree());
  inst.rooted = std::make_unique<hbn::net::RootedTree>(
      *inst.tree, inst.tree->defaultRoot());
  inst.stream = makeStream(spec, *inst.tree, seed);
  serve::ServeOptions options = serveOptions(spec, shape.threads);
  if (spec.workers > 0) {
    shard::ShardOptions sharded;
    sharded.serve = options;
    sharded.partition = shard::Partition::Kind::Hash;
    sharded.partitionSeed = seed;
    inst.cluster = shard::makeExecCluster(shape.workers);
    inst.coordinator = std::make_unique<shard::ShardCoordinator>(
        *inst.tree, spec.objects, sharded, inst.cluster->links(), "socket");
  } else {
    if (spec.checkpointEvery > 0) {
      options.checkpointDir = checkpointDir;
      options.checkpointEvery = spec.checkpointEvery;
    }
    inst.server = std::make_unique<serve::EpochServer>(*inst.rooted,
                                                       spec.objects, options);
  }
  return inst;
}

/// One repetition's outcome. `layer` holds the real-run per-layer
/// metrics (filled on fill-timed repetitions).
struct Rep {
  bool ok = false;
  double setupS = 0.0;
  double wallS = 0.0;
  Metrics e2e;
  Metrics layer;
  Digest digest;
};

double peakRssMb(bool withWorkers) {
  rusage self{};
  getrusage(RUSAGE_SELF, &self);
  double kb = static_cast<double>(self.ru_maxrss);
  if (withWorkers) {
    rusage children{};
    getrusage(RUSAGE_CHILDREN, &children);
    kb += static_cast<double>(children.ru_maxrss);
  }
  return kb / 1024.0;
}

/// Epoch-log derived metrics shared by both engines.
void epochMetrics(const std::vector<serve::EpochRecord>& log, double wallMs,
                  Rep& rep) {
  std::vector<double> all;
  std::vector<double> plain;
  std::vector<double> replaced;
  std::vector<double> checkpointed;
  double inEpochs = 0.0;
  double degraded = 0.0;
  for (const serve::EpochRecord& r : log) {
    all.push_back(r.wallMs);
    inEpochs += r.wallMs;
    if (r.degraded) degraded += 1.0;
    if (r.checkpointed) {
      checkpointed.push_back(r.wallMs);
    } else if (r.replaced) {
      replaced.push_back(r.wallMs);
    } else {
      plain.push_back(r.wallMs);
    }
  }
  const auto n = static_cast<double>(std::max<std::size_t>(1, log.size()));
  rep.e2e["epoch_p50_ms"] = percentile(all, 50.0);
  rep.e2e["epoch_p95_ms"] = percentile(all, 95.0);
  rep.layer["serve.plain_epoch_ms_p50"] = percentile(plain, 50.0);
  rep.layer["serve.replaced_epoch_ms_p50"] = percentile(replaced, 50.0);
  rep.layer["serve.checkpoint_epoch_ms_p50"] = percentile(checkpointed, 50.0);
  rep.layer["serve.outside_epoch_share"] = 1.0 - inEpochs / wallMs;
  rep.layer["serve.degraded_epochs"] = degraded;
  rep.layer["workload.handoff_epoch_share"] =
      static_cast<double>(std::count_if(log.begin(), log.end(),
                                        [](const auto& r) { return r.replaced; })) /
      n;
  rep.layer["workload.checkpoint_epoch_share"] =
      static_cast<double>(checkpointed.size()) / n;
}

/// One closed-loop repetition: timed setup, then the timed serve() call;
/// the digest is read afterwards, outside both timings. `timed` wraps
/// the stream for fill timing (single-process) — the sharded workload
/// is always wrapped, because its request latency is rebuilt from the
/// arrival stamps.
Rep runRep(const WorkloadSpec& spec, const Shape& shape, std::uint64_t seed,
           const std::string& checkpointDir, bool timed, SpanRecorder* spans) {
  Rep rep;
  const auto setupStart = Clock::now();
  Instance inst = setUp(spec, shape, seed, checkpointDir);
  const auto setupEnd = Clock::now();
  rep.setupS = seconds(setupStart, setupEnd);

  const bool sharded = spec.workers > 0;
  std::int64_t serveSpan = -1;
  if (spans != nullptr) {
    serveSpan = spans->add("serve", setupEnd, setupEnd, -1,
                           SpanRecorder::kServe);
  }
  std::unique_ptr<TimedStream> wrapped;
  if (timed || sharded) {
    wrapped = std::make_unique<TimedStream>(*inst.stream, spans, serveSpan);
  }
  serve::RequestStream& stream =
      wrapped ? static_cast<serve::RequestStream&>(*wrapped) : *inst.stream;
  const auto requests = static_cast<double>(spec.requests());

  if (sharded) {
    const auto start = Clock::now();
    const shard::ShardedReport report = inst.coordinator->serve(stream);
    const auto end = Clock::now();
    if (spans != nullptr) spans->setEnd(serveSpan, end);
    inst.cluster->join();
    rep.wallS = seconds(start, end);
    const auto& log = inst.coordinator->epochLog();
    epochMetrics(log, rep.wallS * 1e3, rep);
    const std::vector<double> latency =
        rebuildLatencies(wrapped->stamps(), log, start, spec.epochSize);
    rep.e2e["request_p50_ms"] = percentile(latency, 50.0);
    rep.e2e["request_p99_ms"] = percentile(latency, 99.0);
    rep.e2e["congestion"] = report.congestion;
    rep.digest.loads = loadVector(inst.coordinator->loads());
    rep.digest.congestion = report.congestion;
    rep.digest.replications = report.replications;
    rep.digest.invalidations = report.invalidations;
    double busyMax = 0.0;
    double busySum = 0.0;
    for (const shard::ShardBreakdown& b : report.shards) {
      busyMax = std::max(busyMax, b.busyMs);
      busySum += b.busyMs;
    }
    rep.layer["shard.bytes_per_req"] = report.bytesPerRequest;
    rep.layer["shard.critical_path_share"] =
        report.criticalPathMs / report.wallMs;
    rep.layer["shard.busy_imbalance"] =
        busySum > 0.0 ? busyMax * static_cast<double>(report.shards.size()) /
                            busySum
                      : 0.0;
    rep.layer["serve.handoff_retries"] = 0.0;
    rep.layer["dynamic.handoffs"] = static_cast<double>(report.replacements);
  } else {
    const auto start = Clock::now();
    const serve::ServeReport report = inst.server->serve(stream);
    const auto end = Clock::now();
    if (spans != nullptr) spans->setEnd(serveSpan, end);
    rep.wallS = seconds(start, end);
    epochMetrics(inst.server->epochLog(), rep.wallS * 1e3, rep);
    rep.e2e["request_p50_ms"] = report.latencyMsP50;
    rep.e2e["request_p99_ms"] = report.latencyMsP99;
    rep.e2e["congestion"] = report.congestion;
    rep.digest.loads = loadVector(inst.server->loads());
    rep.digest.congestion = report.congestion;
    rep.digest.replications = report.replications;
    rep.digest.invalidations = report.invalidations;
    rep.layer["serve.degraded_epochs"] =
        static_cast<double>(report.degradedEpochs);
    rep.layer["serve.handoff_retries"] =
        static_cast<double>(report.handoffRetries);
    rep.layer["dynamic.handoffs"] = static_cast<double>(report.replacements);
    for (const char* key : {"shard.bytes_per_req", "shard.critical_path_share",
                            "shard.busy_imbalance"}) {
      rep.layer[key] = 0.0;
    }
  }
  rep.e2e["throughput_mreq_s"] = requests / rep.wallS / 1e6;
  rep.layer["dynamic.replications_per_kreq"] =
      static_cast<double>(rep.digest.replications) / (requests / 1e3);
  rep.layer["dynamic.invalidations_per_kreq"] =
      static_cast<double>(rep.digest.invalidations) / (requests / 1e3);
  if (wrapped) rep.layer["workload.fill_ns_per_req"] = wrapped->fillNs() / requests;
  rep.ok = true;
  return rep;
}

/// The reference serve the gate compares against: the default
/// single-process engine at threads 1 (also for the sharded workload).
struct Reference {
  Digest digest;
  double throughput = 0.0;  ///< Mreq/s
  double checkpointMs = 0.0;
  double checkpointMb = 0.0;
};

Reference runReference(const WorkloadSpec& spec, std::uint64_t seed,
                       bool timeCheckpoint, SpanRecorder* spans) {
  const hbn::net::Tree tree = makeTree();
  const hbn::net::RootedTree rooted(tree, tree.defaultRoot());
  const auto stream = makeStream(spec, tree, seed);
  serve::EpochServer server(rooted, spec.objects, serveOptions(spec, 1));
  const auto start = Clock::now();
  const serve::ServeReport report = server.serve(*stream);
  const auto end = Clock::now();
  Reference ref;
  ref.throughput = static_cast<double>(spec.requests()) /
                   seconds(start, end) / 1e6;
  ref.digest.loads = loadVector(server.loads());
  ref.digest.congestion = report.congestion;
  ref.digest.replications = report.replications;
  ref.digest.invalidations = report.invalidations;
  if (timeCheckpoint) {
    // The checkpoint layer's cost on end-of-run state: snapshot plus
    // serialisation into memory, as the engine does at a boundary.
    std::vector<double> ms;
    for (int i = 0; i < kCheckpointSamples; ++i) {
      const auto t0 = Clock::now();
      std::ostringstream out;
      serve::writeCheckpoint(server.snapshotState(), out);
      const auto t1 = Clock::now();
      ms.push_back(millis(t0, t1));
      ref.checkpointMb = static_cast<double>(out.str().size()) / (1 << 20);
      if (spans != nullptr) {
        spans->add("checkpoint", t0, t1, -1, SpanRecorder::kReplay);
      }
    }
    ref.checkpointMs = median(ms);
  }
  return ref;
}

/// The correctness gate: every digest field must match exactly.
bool gate(const Digest& got, const Digest& want) { return got == want; }

/// A reference the gate must reject: one edge load off by one.
Digest perturbed(const Digest& reference) {
  Digest bad = reference;
  bad.loads.at(0) += 1;
  return bad;
}

std::string jsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  std::ostringstream out;
  out << std::setprecision(17) << v;
  return out.str();
}

/// The result line: metric values only; run.py attaches the units
/// declared in BENCHMARK.json (and zeros for a failed run's missing ones).
void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  std::cout << "{\"correct\":" << (correct ? "true" : "false")
            << ",\"attempted\":" << attempted << ",\"failed\":" << failed
            << ",\"metrics\":{";
  bool first = true;
  for (const auto& [key, value] : metrics) {
    std::cout << (first ? "" : ",") << "\"" << key
              << "\":" << jsonNumber(value);
    first = false;
  }
  std::cout << "}}" << std::endl;
}

int run(const Args& args) {
  const WorkloadSpec& spec = findWorkload(args.workload);
  const Shape shape = resolveShape(spec);
  const bool sharded = spec.workers > 0;
  std::filesystem::create_directories(args.outDir);
  const std::string checkpointDir =
      args.outDir + "/ckpt-" + std::to_string(::getpid());
  SpanRecorder spans;
  SpanRecorder* const traceSpans = args.trace ? &spans : nullptr;

  // Outside every timed region: the reference digest, and proof that the
  // gate rejects a reference one load unit away.
  Reference ref;
  try {
    ref = runReference(spec, args.seed, args.trace, traceSpans);
  } catch (const std::exception& e) {
    // Nothing to gate against: every request of the run counts as failed.
    std::cerr << "servebench: reference serve failed: " << e.what() << "\n";
    printResult(false, spec.requests(), spec.requests(), {});
    return 0;
  }
  const Digest badRef = perturbed(ref.digest);

  std::vector<double> setups;
  for (int i = 0; i < kSetupSamples; ++i) {
    const auto t0 = Clock::now();
    Instance inst = setUp(spec, shape, args.seed, checkpointDir);
    setups.push_back(seconds(t0, Clock::now()));
    if (inst.cluster) inst.cluster->kill();
  }

  std::vector<Rep> plain;
  std::vector<Rep> timed;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  bool selfCheckRejects = true;
  const auto loopStart = Clock::now();
  for (int i = 0;; ++i) {
    const double elapsed = seconds(loopStart, Clock::now());
    if (elapsed >= args.seconds && i >= (args.trace ? 2 : 1)) break;
    const bool fillTimed = args.trace && i % 2 == 1;
    attempted += spec.requests();
    Rep rep;
    try {
      rep = runRep(spec, shape, args.seed, checkpointDir, fillTimed,
                   fillTimed ? traceSpans : nullptr);
    } catch (const std::exception& e) {
      std::cerr << "servebench: repetition " << i << " failed: " << e.what()
                << "\n";
    }
    std::filesystem::remove_all(checkpointDir);
    if (rep.ok && !gate(rep.digest, ref.digest)) {
      std::cerr << "servebench: repetition " << i << " digest "
                << std::hex << rep.digest.hash() << " != reference "
                << ref.digest.hash() << std::dec << "\n";
      rep.ok = false;
    }
    if (rep.ok && gate(rep.digest, badRef)) selfCheckRejects = false;
    if (!rep.ok) {
      failed += spec.requests();
      correct = false;
      continue;
    }
    std::cerr << "servebench: repetition " << i
              << (fillTimed ? " (fill-timed)" : "") << ": setup "
              << rep.setupS * 1e3 << " ms, serve " << rep.wallS << " s";
    for (const auto& [key, value] : rep.e2e) {
      std::cerr << ", " << key << " " << value;
    }
    std::cerr << "\n";
    (fillTimed ? timed : plain).push_back(std::move(rep));
  }
  if (!selfCheckRejects) {
    std::cerr << "servebench: gate accepted a perturbed reference\n";
    correct = false;
  }

  Metrics metrics;
  const auto medianOf = [](const std::vector<Rep>& reps,
                           const Metrics Rep::*field, const std::string& key) {
    std::vector<double> values;
    for (const Rep& r : reps) values.push_back((r.*field).at(key));
    return median(values);
  };
  std::string traceFile;
  if (!args.trace) {
    if (!plain.empty()) {
      for (const auto& [key, value] : plain.front().e2e) {
        (void)value;
        metrics[key] = medianOf(plain, &Rep::e2e, key);
      }
    }
    metrics["setup_s"] = median(setups);
    metrics["peak_rss_mb"] = peakRssMb(sharded);
    metrics["served_share"] =
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted);
  } else {
    if (!timed.empty()) {
      for (const auto& [key, value] : timed.front().layer) {
        (void)value;
        metrics[key] = medianOf(timed, &Rep::layer, key);
      }
    }
    std::vector<double> plainWall;
    std::vector<double> timedWall;
    for (const Rep& r : plain) plainWall.push_back(r.wallS);
    for (const Rep& r : timed) timedWall.push_back(r.wallS);
    metrics["trace.overhead_share"] =
        plainWall.empty() ? 0.0 : median(timedWall) / median(plainWall) - 1.0;
    metrics["core.thread_speedup"] =
        plain.empty() ? 0.0
                      : medianOf(plain, &Rep::e2e, "throughput_mreq_s") /
                            ref.throughput;
    metrics["serve.checkpoint_ms"] = ref.checkpointMs;
    metrics["serve.checkpoint_mb"] = ref.checkpointMb;

    const hbn::net::Tree tree = makeTree();
    const hbn::net::RootedTree rooted(tree, tree.defaultRoot());
    const ReplayResult replayed =
        replay(spec, rooted, args.seed,
               sharded ? shape.workers : shape.threads, spans);
    // The replay must have done the program's work: its digest equals
    // the real run's (which the gate already tied to the reference).
    if (!gate(replayed.digest, ref.digest)) {
      std::cerr << "servebench: replay digest " << std::hex
                << replayed.digest.hash() << " != real "
                << ref.digest.hash() << std::dec << "\n";
      correct = false;
      failed = attempted;
    }
    const auto perReq = [&](double ns) {
      return ns / static_cast<double>(replayed.requests);
    };
    metrics["serve.bucket_ns_per_req"] = perReq(replayed.bucketNs);
    metrics["dynamic.serve_shard_ns_per_req"] = perReq(replayed.serveShardNs);
    metrics["core.aggregate_lb_ns_per_req"] = perReq(replayed.aggregateLbNs);
    metrics["shard.encode_ns_per_req"] = perReq(replayed.encodeNs);
    metrics["shard.decode_ns_per_req"] = perReq(replayed.decodeNs);
    metrics["dynamic.handoff_begin_ms"] = median(replayed.handoffBeginMs);
    metrics["dynamic.migrate_us_per_object"] =
        replayed.migratedObjects == 0
            ? 0.0
            : replayed.migrateNs / 1e3 /
                  static_cast<double>(replayed.migratedObjects);
    metrics["workload.touched_share"] = replayed.touchedShare;
    metrics["workload.stripe_imbalance"] = replayed.stripeImbalance;
    metrics["workload.write_share"] = replayed.writeShare;

    traceFile = args.outDir + "/trace-" + spec.name + "-seed" +
                std::to_string(args.seed) + ".json";
    spans.writeChromeTrace(traceFile);
  }

  std::cout << "{\"stamp\":{\"workload\":\"" << spec.name
            << "\",\"seed\":" << args.seed
            << ",\"seconds\":" << jsonNumber(args.seconds)
            << ",\"trace\":" << (args.trace ? 1 : 0)
            << ",\"cpus\":" << shape.cpus << ",\"threads\":" << shape.threads
            << ",\"workers\":" << shape.workers
            << ",\"nominal_threads\":" << spec.threads
            << ",\"nominal_workers\":" << spec.workers
            << ",\"capped\":" << (shape.capped ? "true" : "false")
            << ",\"requests_per_rep\":" << spec.requests()
            << ",\"reps\":" << plain.size() + timed.size()
            << ",\"reference_digest\":\"" << std::hex << ref.digest.hash()
            << std::dec << "\",\"gate_rejects_perturbed\":"
            << (selfCheckRejects ? "true" : "false") << ",\"compiler\":\""
            << SERVEBENCH_COMPILER << "\",\"build_type\":\""
            << SERVEBENCH_BUILD_TYPE << "\",\"commit\":\"" << args.commit
            << "\",\"trace_file\":\"" << traceFile << "\"}}\n";

  printResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace
}  // namespace servebench

int main(int argc, char** argv) {
  // Exec-cluster workers are this binary re-executed with the hidden
  // worker flag: they must never reach the benchmark's own main.
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv); code >= 0) {
    return code;
  }
  try {
    return servebench::run(servebench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "servebench: " << e.what() << "\n";
    return 2;
  }
}
