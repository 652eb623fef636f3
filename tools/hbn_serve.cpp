// hbn_serve — the streaming request-serving frontend.
//
// Usage:
//   hbn_serve [options] [<tree-file>]
//
// Serves an online stream of read/write requests through the epoch-batched
// serving engine (hbn/serve/epoch_server.h): requests are consumed in
// epochs, each split over worker threads into contiguous object ranges
// of about equal work (bit-identical output for any --threads value),
// and between epochs the engine runs the policy's drift-triggered
// re-placement pass against the analytic offline lower bound of the
// aggregated frequencies.
//
// The serving policy is selected by --policy SPEC from the
// OnlinePolicyRegistry (--list-policies enumerates them), sharing the
// `name[:key=value,...]` grammar of --strategy specs; nested strategy
// specs compose, e.g. --policy static:placement=extended-nibble.
//
// The stream comes either from a trace file (hbn-trace v1, --trace) or
// from one of the generated profiles (--stream skewed|bursty|diurnal,
// bounded by --requests). Without a tree file a two-level cluster network
// is generated (--clusters/--procs).
#include <charconv>
#include <cmath>
#include <fstream>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "hbn/dynamic/online_policy.h"
#include "hbn/engine/cli.h"
#include "hbn/net/generators.h"
#include "hbn/net/serialize.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/shard/coordinator.h"
#include "hbn/shard/partition.h"
#include "hbn/shard/process.h"
#include "hbn/util/fault.h"
#include "hbn/util/json.h"
#include "hbn/util/stats.h"
#include "hbn/util/table.h"

namespace {

/// Cap for every int-typed count flag: without it the uint64→int cast
/// would silently wrap values >= 2^32.
constexpr std::uint64_t kMaxInt = std::numeric_limits<int>::max();

struct ServeCli {
  std::string trace;            ///< trace file; empty = generated stream
  std::string stream = "skewed";
  std::uint64_t requests = 1'000'000;
  std::size_t epoch = 1 << 16;
  bool epochSet = false;        ///< --epoch given (else a restore's value)
  int objects = 1024;
  int clusters = 4;
  int procs = 8;                ///< processors per cluster
  double drift = 3.0;
  bool driftSet = false;        ///< --drift given (else a restore's value)
  bool pipeline = true;            ///< pipelined (vs barrier) engine
  std::size_t latencySample = 4096;  ///< latency reservoir capacity
  double reads = 0.9;              ///< stream read fraction
  std::string policy;           ///< policy spec; empty = tree-counters
  bool listPolicies = false;
  std::string jsonOut;          ///< empty = no JSON report
  std::string checkpointDir;    ///< empty = checkpointing off
  std::uint64_t checkpointEvery = 1;
  std::string restoreDir;       ///< resume from this checkpoint dir
  std::string inject;           ///< comma-joined fault specs
  double stallTimeout = 0.0;    ///< ingest watchdog ms; 0 = wait forever
  std::uint64_t handoffRetries = 3;
  int workers = 0;              ///< sharded workers; 0 = single-process
  std::string transport = "loopback";  ///< loopback | socket
  std::string partition = "hash";      ///< hash | range
  hbn::engine::CliOptions shared;
};

/// Strict double flag parser matching parseUintFlag's discipline: the
/// whole text must be one finite number inside [lo, hi] — '2x', 'nan',
/// and '' are errors, not partial parses.
double parseDoubleFlag(const std::string& flag, const std::string& text,
                       double lo, double hi) {
  double value = 0.0;
  const char* begin = text.data();
  const char* end = begin + text.size();
  const auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || !std::isfinite(value) ||
      value < lo || value > hi) {
    std::ostringstream range;
    range << flag << " expects a number in [" << lo << ", " << hi
          << "], got '" << text << "'";
    throw std::invalid_argument(range.str());
  }
  return value;
}

ServeCli parseServeCli(int argc, char** argv) {
  ServeCli cli;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " expects a value");
      }
      return argv[++i];
    };
    if (arg == "--trace") {
      cli.trace = value(arg);
    } else if (arg == "--stream") {
      cli.stream = value(arg);
    } else if (arg == "--requests" || arg == "-n") {
      cli.requests = hbn::engine::parseUintFlag(arg, value(arg));
    } else if (arg == "--epoch" || arg == "-e") {
      const std::uint64_t epoch =
          hbn::engine::parseUintFlag(arg, value(arg));
      if (epoch < 1) throw std::invalid_argument("--epoch expects >= 1");
      cli.epoch = static_cast<std::size_t>(epoch);
      cli.epochSet = true;
    } else if (arg == "--objects") {
      cli.objects = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--clusters") {
      cli.clusters = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--procs") {
      cli.procs = static_cast<int>(
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt));
    } else if (arg == "--reads") {
      cli.reads = parseDoubleFlag(arg, value(arg), 0.0, 1.0);
    } else if (arg == "--policy") {
      cli.policy = value(arg);
    } else if (arg == "--list-policies") {
      cli.listPolicies = true;
    } else if (arg == "--drift") {
      cli.drift = parseDoubleFlag(arg, value(arg), 0.0, 1e9);
      cli.driftSet = true;
    } else if (arg == "--pipeline" || arg.rfind("--pipeline=", 0) == 0) {
      const std::string mode =
          arg == "--pipeline" ? value(arg) : arg.substr(11);
      if (mode == "on") {
        cli.pipeline = true;
      } else if (mode == "off") {
        cli.pipeline = false;
      } else {
        throw std::invalid_argument("--pipeline expects on|off, got '" +
                                    mode + "'");
      }
    } else if (arg == "--latency-sample" ||
               arg.rfind("--latency-sample=", 0) == 0) {
      const std::string text =
          arg == "--latency-sample" ? value(arg) : arg.substr(17);
      cli.latencySample = static_cast<std::size_t>(
          hbn::engine::parseUintFlag("--latency-sample", text));
    } else if (arg == "--json") {
      cli.jsonOut = value(arg);
    } else if (arg == "--checkpoint-dir") {
      cli.checkpointDir = value(arg);
    } else if (arg == "--checkpoint-every") {
      cli.checkpointEvery = hbn::engine::parseUintFlag(arg, value(arg));
      if (cli.checkpointEvery < 1) {
        throw std::invalid_argument("--checkpoint-every expects >= 1");
      }
    } else if (arg == "--restore") {
      cli.restoreDir = value(arg);
    } else if (arg == "--inject") {
      // Repeatable; specs accumulate (each may itself be a comma list).
      const std::string spec = value(arg);
      if (!cli.inject.empty()) cli.inject += ',';
      cli.inject += spec;
    } else if (arg == "--stall-timeout") {
      cli.stallTimeout = parseDoubleFlag(arg, value(arg), 0.0, 1e9);
    } else if (arg == "--handoff-retries") {
      cli.handoffRetries =
          hbn::engine::parseUintFlag(arg, value(arg), kMaxInt);
    } else if (arg == "--workers" || arg.rfind("--workers=", 0) == 0) {
      const std::string text =
          arg == "--workers" ? value(arg) : arg.substr(10);
      cli.workers = static_cast<int>(
          hbn::engine::parseUintFlag("--workers", text, kMaxInt));
    } else if (arg == "--transport" || arg.rfind("--transport=", 0) == 0) {
      cli.transport = arg == "--transport" ? value(arg) : arg.substr(12);
      if (cli.transport != "loopback" && cli.transport != "socket") {
        throw std::invalid_argument(
            "--transport expects loopback|socket, got '" + cli.transport +
            "'");
      }
    } else if (arg == "--partition" || arg.rfind("--partition=", 0) == 0) {
      cli.partition = arg == "--partition" ? value(arg) : arg.substr(12);
      (void)hbn::shard::parsePartitionKind(cli.partition);  // validate
    } else {
      rest.push_back(argv[i]);
    }
  }
  cli.shared = hbn::engine::parseCli(static_cast<int>(rest.size()),
                                     rest.data());
  return cli;
}

void printUsage(std::ostream& os) {
  os << "usage: hbn_serve [options] [<tree-file>]\n"
        "\n"
        "Streams requests through the epoch-batched serving engine and\n"
        "reports throughput, epoch latency, and the realised-congestion\n"
        "ratio against the offline lower bound.\n"
        "\n"
        "options:\n"
        "  --trace FILE      serve a trace file (hbn-trace v1) instead of\n"
        "                    a generated stream\n"
        "  --stream NAME     generated stream profile: skewed | bursty |\n"
        "                    diurnal | phase-shift (default skewed)\n"
        "  --requests N      generated stream length (default 1000000)\n"
        "  --epoch N         requests per epoch (default 65536)\n"
        "  --objects N       shared objects for generated streams\n"
        "                    (default 1024)\n"
        "  --clusters N      generated topology: cluster count (default 4)\n"
        "  --procs N         processors per cluster (default 8)\n"
        "  --reads F         generated stream read fraction (default 0.9)\n"
        "  --policy SPEC     online policy spec (default tree-counters);\n"
        "                    nested strategy specs compose, e.g.\n"
        "                    static:placement=extended-nibble\n"
        "  --list-policies   list registered policies and exit\n"
        "  --drift F         re-place when congestion growth > F x lower-\n"
        "                    bound growth since the last re-placement;\n"
        "                    0 disables (default 3.0)\n"
        "  --pipeline MODE   on (default): threaded double-buffered ingest\n"
        "                    plus lazy per-object re-placement; off:\n"
        "                    barrier engine (same results, spikier tails)\n"
        "  --latency-sample N  request-latency reservoir capacity for the\n"
        "                    p50/p99/p999 metrics; 0 disables (default 4096)\n"
        "  --checkpoint-dir D  write epoch-boundary checkpoints\n"
        "                    (hbn-checkpoint v2, binary) into D; restore\n"
        "                    with --restore D after a crash\n"
        "  --checkpoint-every K  epochs between checkpoints (default 1)\n"
        "  --restore D       resume from the latest checkpoint in D (the\n"
        "                    stream is rebuilt and the served prefix\n"
        "                    skipped; the resumed run's final state is\n"
        "                    bit-identical to an uninterrupted one).\n"
        "                    --policy, --epoch and --drift default to the\n"
        "                    checkpoint's; a conflicting value exits 14\n"
        "  --inject SPEC     arm a deterministic fault (repeatable):\n"
        "                    ingest-stall@epochN[:ms=T] |\n"
        "                    shard-throw@epochN[:shardM] |\n"
        "                    handoff-fail@epochN[:times=K]\n"
        "  --stall-timeout MS  ingest watchdog: past MS the serve thread\n"
        "                    fills an epoch the ingest thread has not\n"
        "                    begun itself (degraded mode);\n"
        "                    with --workers it is also the peer watchdog:\n"
        "                    a worker silent for MS fails the run (exit\n"
        "                    17; 15 during the handshake); 0 waits\n"
        "                    forever (default)\n"
        "  --handoff-retries N  retries before a failed handoff\n"
        "                    publication aborts the run (default 3)\n"
        "  --workers N       shard the object space over N workers and\n"
        "                    serve through the coordinator/worker protocol\n"
        "                    (docs/sharding.md); 0 = single-process engine\n"
        "                    (default). Bit-identical loads and ratio for\n"
        "                    any N. Incompatible with --checkpoint-dir,\n"
        "                    --restore and --inject.\n"
        "  --transport T     worker transport: loopback (in-process\n"
        "                    threads) | socket (fork+exec'd processes over\n"
        "                    Unix sockets); default loopback\n"
        "  --partition P     object partition: hash (seeded stable hash) |\n"
        "                    range (contiguous blocks); default hash\n"
        "  --json FILE       also write the serve report as JSON records\n"
        "  --threads N       worker threads (0 = all cores)\n"
        "  --seed N          stream RNG seed\n"
        "  --help            show this text\n"
        "\n"
        "exit codes: 0 ok, 1 error, 2 usage/bad input; stage failures:\n"
        "  10 ingest, 11 serve, 12 handoff, 13 checkpoint, 14 restore,\n"
        "  15 connect, 16 frame, 17 peer (see docs/robustness.md)\n"
        "\n"
        "policies:\n"
     << hbn::dynamic::OnlinePolicyRegistry::global().helpText();
}

std::string readFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hbn;
  // Worker mode: when spawned by an exec cluster with
  // --shard-worker-fd=K this process IS a shard worker; it speaks the
  // wire protocol over fd K and exits with the stage code on failure.
  if (const int code = shard::maybeRunWorkerMain(argc, argv); code >= 0) {
    return code;
  }
  try {
    const ServeCli cli = parseServeCli(argc, argv);
    if (cli.shared.help) {
      printUsage(std::cout);
      return 0;
    }
    if (cli.listPolicies) {
      std::cout << "policies:\n"
                << dynamic::OnlinePolicyRegistry::global().helpText();
      return 0;
    }
    if (cli.shared.positional.size() > 1) {
      printUsage(std::cerr);
      return 2;
    }
    if (!cli.shared.strategies.empty()) {
      throw std::invalid_argument(
          "hbn_serve serves through --policy; --strategy is not accepted "
          "(nest it: --policy static:placement=SPEC)");
    }
    if (cli.workers > 0 &&
        (!cli.checkpointDir.empty() || !cli.restoreDir.empty() ||
         !cli.inject.empty())) {
      throw std::invalid_argument(
          "--workers is incompatible with --checkpoint-dir/--restore/"
          "--inject: checkpointing and fault injection are single-process "
          "features (see docs/sharding.md)");
    }
    // When resuming, load the snapshot before anything else: it decides
    // the policy (absent --policy), the epoch size and drift
    // factor (absent --epoch/--drift) and the object count for generated
    // streams, so a bare `--restore D` resumes faithfully.
    std::optional<serve::CheckpointData> restored;
    if (!cli.restoreDir.empty()) {
      try {
        restored = serve::readCheckpointFile(
            serve::latestCheckpointPath(cli.restoreDir));
      } catch (const serve::Error&) {
        throw;
      } catch (const std::exception& e) {
        throw serve::Error(serve::Stage::Restore, 0, e.what());
      }
    }

    const std::string policySpec = !cli.policy.empty() ? cli.policy
                                   : restored ? restored->policySpec
                                              : "tree-counters";

    const net::Tree tree =
        cli.shared.positional.empty()
            ? net::makeClusterNetwork(cli.clusters, cli.procs)
            : net::parseText(readFile(cli.shared.positional.front()));
    const net::RootedTree rooted(tree, tree.defaultRoot());
    const std::uint64_t seed = cli.shared.seedSet ? cli.shared.seed : 12;

    std::unique_ptr<serve::RequestStream> stream;
    int numObjects = restored ? restored->numObjects : cli.objects;
    if (!cli.trace.empty()) {
      auto traceStream = std::make_unique<serve::TraceFileStream>(cli.trace);
      if (traceStream->numNodes() != tree.nodeCount()) {
        throw std::runtime_error("trace node count does not match tree");
      }
      numObjects = traceStream->numObjects();
      stream = std::move(traceStream);
    } else {
      workload::StreamParams params;
      params.numObjects = numObjects;
      params.readFraction = cli.reads;
      stream = serve::makeGeneratedStream(cli.stream, tree, params, seed,
                                          cli.requests);
    }

    serve::ServeOptions options;
    options.epochSize =
        restored && !cli.epochSet ? restored->epochSize : cli.epoch;
    options.threads = cli.shared.threads;
    options.replaceDrift =
        restored && !cli.driftSet ? restored->replaceDrift : cli.drift;
    options.policy = policySpec;
    options.pipeline = cli.pipeline;
    options.latencySample = cli.latencySample;
    options.checkpointDir = cli.checkpointDir;
    options.checkpointEvery = cli.checkpointEvery;
    options.stallTimeoutMs = cli.stallTimeout;
    options.handoffRetries = static_cast<int>(cli.handoffRetries);
    options.faults = util::makeFaultInjector(cli.inject);

    // One report type for both engines; the shard-only fields stay
    // empty in single-process mode.
    const bool sharded = cli.workers > 0;
    shard::ShardedReport report;
    std::vector<serve::EpochRecord> log;
    const auto announce = [&](const std::string& workers) {
      std::cout << "serving "
                << (cli.trace.empty() ? "stream '" + cli.stream + "'"
                                      : "trace " + cli.trace)
                << " over " << tree.processorCount() << " processors, "
                << numObjects << " objects" << workers
                << " (policy=" << policySpec
                << ", epoch=" << options.epochSize
                << ", threads=" << options.threads << ", seed=" << seed
                << ", drift=" << options.replaceDrift
                << ", pipeline=" << (cli.pipeline ? "on" : "off");
      if (sharded) {
        std::cout << ", transport=" << cli.transport
                  << ", partition=" << cli.partition;
      }
      std::cout << ")\n\n";
    };

    if (sharded) {
      // Sharded mode: fan the stream out over a worker cluster through
      // the coordinator/worker wire protocol (docs/sharding.md). The
      // merged loads and ratio are bit-identical to the single-process
      // engine for any worker count.
      shard::ShardOptions shardOptions;
      shardOptions.serve = options;
      shardOptions.partition = shard::parsePartitionKind(cli.partition);
      shardOptions.partitionSeed = seed;
      shardOptions.peerTimeoutMs = cli.stallTimeout;
      std::unique_ptr<shard::ShardCluster> cluster =
          cli.transport == "loopback"
              ? shard::makeLoopbackCluster(cli.workers)
              : shard::makeExecCluster(cli.workers);
      shard::ShardCoordinator coordinator(tree, numObjects, shardOptions,
                                          cluster->links(), cli.transport);
      announce(", " + std::to_string(cli.workers) + " shard workers");
      report = coordinator.serve(*stream);
      cluster->join();
      log = coordinator.epochLog();
    } else {
      serve::EpochServer server(rooted, numObjects, options);
      if (restored) {
        try {
          server.restoreFrom(*restored);
          serve::skipRequests(*stream, restored->servedTotal);
        } catch (const serve::Error&) {
          throw;
        } catch (const std::exception& e) {
          throw serve::Error(serve::Stage::Restore, restored->epochs,
                             e.what());
        }
        std::cout << "restored from " << cli.restoreDir << ": epoch "
                  << restored->epochs << ", " << restored->servedTotal
                  << " requests already served\n";
      }
      announce("");
      static_cast<serve::ServeReport&>(report) = server.serve(*stream);
      log = server.epochLog();
    }

    util::Table epochs({"epoch", "requests", "ms", "congestion",
                        "lower bound", "ratio", "re-placed", "degraded",
                        "ckpt"});
    // The log can run to thousands of epochs; print the first and last
    // few, eliding the middle.
    for (std::size_t i = 0; i < log.size(); ++i) {
      if (log.size() > 12 && i == 6) {
        epochs.addRow({"...", "...", "...", "...", "...", "...", "...",
                       "...", "..."});
      }
      if (log.size() > 12 && i >= 6 && i + 6 < log.size()) continue;
      const serve::EpochRecord& r = log[i];
      epochs.addRow({std::to_string(r.index), std::to_string(r.requests),
                     util::formatDouble(r.wallMs, 1),
                     util::formatDouble(r.congestion, 1),
                     util::formatDouble(r.lowerBound, 1),
                     util::formatDouble(r.ratio, 2),
                     r.replaced ? "yes" : "", r.degraded ? "yes" : "",
                     r.checkpointed ? "yes" : ""});
    }
    epochs.print(std::cout);

    std::cout << "\nserved " << report.totalRequests << " requests in "
              << report.epochs << " epochs, "
              << util::formatDouble(report.wallMs, 1) << " ms ("
              << util::formatDouble(report.requestsPerSec / 1e6, 2)
              << " M req/s";
    if (sharded) {
      std::cout << " wall, "
                << util::formatDouble(report.requestsPerSecCritical / 1e6, 2)
                << " M req/s critical-path";
    }
    std::cout << ")\n"
              << "epoch latency p50/p99/p999: "
              << util::formatDouble(report.epochMsP50, 2) << " / "
              << util::formatDouble(report.epochMsP99, 2) << " / "
              << util::formatDouble(report.epochMsP999, 2) << " ms\n"
              << "request latency p50/p99/p999: "
              << util::formatDouble(report.latencyMsP50, 2) << " / "
              << util::formatDouble(report.latencyMsP99, 2) << " / "
              << util::formatDouble(report.latencyMsP999, 2) << " ms ("
              << report.latencySamples << " sampled)\n"
              << "congestion " << util::formatDouble(report.congestion, 1)
              << " vs offline lower bound "
              << util::formatDouble(report.lowerBound, 1) << " — ratio "
              << util::formatDouble(report.ratio, 2) << "\n"
              << report.replacements << " re-placements, "
              << report.replications << " replications, "
              << report.invalidations << " invalidations\n";
    if (!sharded) {
      std::cout << "serve-worker request imbalance (max/mean, epoch median) "
                << util::formatDouble(report.workerImbalance, 2) << "\n";
    }
    std::cout << report.checkpoints << " checkpoints";
    if (report.checkpointWrites > 0) {
      std::cout << " (" << report.checkpointWrites
                << " written by this process in "
                << util::formatDouble(report.checkpointMs, 1)
                << " ms, last " << report.checkpointBytes << " bytes)";
    }
    std::cout << ", " << report.degradedEpochs << " degraded epochs, "
              << report.handoffRetries << " handoff retries\n";
    if (options.faults && options.faults->triggered() > 0) {
      std::cout << options.faults->triggered() << " faults injected\n";
    }
    if (sharded) {
      util::Table shardsTable({"shard", "requests", "busy ms",
                               "replications", "invalidations", "bytes in",
                               "bytes out"});
      for (const shard::ShardBreakdown& b : report.shards) {
        shardsTable.addRow(
            {std::to_string(b.shard), std::to_string(b.requests),
             util::formatDouble(b.busyMs, 1), std::to_string(b.replications),
             std::to_string(b.invalidations),
             std::to_string(b.bytesToWorker),
             std::to_string(b.bytesFromWorker)});
      }
      std::cout << "cross-shard traffic " << report.crossShardBytes
                << " bytes ("
                << util::formatDouble(report.bytesPerRequest, 1)
                << " bytes/request)\n\n";
      shardsTable.print(std::cout);
    }

    if (!cli.jsonOut.empty()) {
      // Only the record kind and run-context keys are written here; the
      // report's own keys come from the serve/shard record writers.
      util::JsonRecords records;
      for (const serve::EpochRecord& r : log) {
        records.beginRecord();
        records.field("kind", "epoch");
        serve::writeEpochFields(records, r);
      }
      for (const shard::ShardBreakdown& b : report.shards) {
        records.beginRecord();
        records.field("kind", "shard");
        shard::writeShardFields(records, b);
      }
      records.beginRecord();
      records.field("kind", "summary");
      records.field("latency_sample", cli.latencySample);
      records.field("seed", seed);
      records.field("threads", options.threads);
      if (sharded) {
        shard::writeReportFields(records, report);
      } else {
        serve::writeReportFields(records, report);
      }
      records.writeFile(cli.jsonOut);
      std::cout << "wrote " << cli.jsonOut << "\n";
    }
    return 0;
  } catch (const serve::Error& e) {
    // Stage failures carry their own exit code (10-14, one per stage —
    // see docs/robustness.md) so supervisors can tell a corrupt trace
    // from a failed checkpoint without parsing stderr.
    std::cerr << "error: " << e.what() << "\n";
    return e.exitCode();
  } catch (const std::invalid_argument& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
