// Tests for the streaming serving engine: request streams, epoch
// batching, shard determinism (1 vs N threads bit-identical), the
// adaptive re-placement pass, and the memory bound that proves streams
// are never materialised.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/core/parallel.h"
#include "hbn/dynamic/online_strategy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/json.h"
#include "hbn/util/rng.h"
#include "hbn/workload/serialize.h"

namespace hbn::serve {
namespace {

long maxRssKb() {
  struct rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;  // kilobytes on Linux
}

TEST(RequestStream, GeneratedStreamIsBoundedAndBatched) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  workload::StreamParams params;
  params.numObjects = 3;
  const auto stream = makeGeneratedStream("skewed", tree, params, 1, 1000);
  std::vector<RequestEvent> batch(256);
  std::size_t total = 0;
  std::size_t fills = 0;
  while (const std::size_t n = stream->fill(batch)) {
    total += n;
    ++fills;
    ASSERT_LE(n, batch.size());
  }
  EXPECT_EQ(total, 1000u);
  EXPECT_EQ(fills, 4u);  // 256 + 256 + 256 + 232
  EXPECT_EQ(stream->fill(batch), 0u);  // stays exhausted
}

TEST(RequestStream, GeneratedStreamsAreSeedDeterministicAndInRange) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  workload::StreamParams params;
  params.numObjects = 17;
  for (const char* name : {"skewed", "bursty", "diurnal", "phase-shift"}) {
    const auto a = makeGeneratedStream(name, tree, params, 5, 500);
    const auto b = makeGeneratedStream(name, tree, params, 5, 500);
    std::vector<RequestEvent> batchA(500);
    std::vector<RequestEvent> batchB(500);
    ASSERT_EQ(a->fill(batchA), 500u) << name;
    ASSERT_EQ(b->fill(batchB), 500u) << name;
    for (std::size_t i = 0; i < batchA.size(); ++i) {
      EXPECT_EQ(batchA[i].object, batchB[i].object) << name;
      EXPECT_EQ(batchA[i].origin, batchB[i].origin) << name;
      EXPECT_EQ(batchA[i].isWrite, batchB[i].isWrite) << name;
      EXPECT_GE(batchA[i].object, 0) << name;
      EXPECT_LT(batchA[i].object, params.numObjects) << name;
      EXPECT_TRUE(tree.isProcessor(batchA[i].origin)) << name;
    }
  }
  EXPECT_THROW((void)makeGeneratedStream("nope", tree, params, 1, 10),
               std::invalid_argument);
}

TEST(RequestStream, PhaseShiftFollowsTheRegimeSchedule) {
  using workload::PhaseShiftStream;
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  workload::StreamParams params;
  params.numObjects = 32;
  params.readFraction = 0.5;
  params.phaseLength = 1'000;
  // One full [skew, skew, churn, burst] cycle plus one slot of wrap.
  const std::uint64_t total =
      params.phaseLength * (PhaseShiftStream::kCycleSlots + 1);
  const auto stream =
      makeGeneratedStream("phase-shift", tree, params, 9, total);
  std::vector<workload::RequestEvent> events(total);
  ASSERT_EQ(stream->fill(events), total);

  // regimeAt is pure slot arithmetic: boundaries sit exactly on
  // phaseLength multiples and the schedule wraps around the cycle.
  for (std::uint64_t slot = 0; slot <= PhaseShiftStream::kCycleSlots;
       ++slot) {
    const int expected =
        PhaseShiftStream::kCycle[slot % PhaseShiftStream::kCycleSlots];
    const std::uint64_t begin = slot * params.phaseLength;
    EXPECT_EQ(PhaseShiftStream::regimeAt(begin, params.phaseLength),
              expected);
    EXPECT_EQ(PhaseShiftStream::regimeAt(begin + params.phaseLength - 1,
                                         params.phaseLength),
              expected);
  }

  // Realised write fractions flip with the regime: the skew slots are
  // read-heavy, the churn slot write-heavy, the burst slot near the
  // base readFraction. Generous brackets — this asserts the regime
  // identity, not the RNG.
  const auto writeFraction = [&](std::uint64_t slot) {
    std::uint64_t writes = 0;
    for (std::uint64_t i = slot * params.phaseLength;
         i < (slot + 1) * params.phaseLength; ++i) {
      writes += events[i].isWrite ? 1 : 0;
    }
    return static_cast<double>(writes) /
           static_cast<double>(params.phaseLength);
  };
  EXPECT_LT(writeFraction(0), 0.1);  // skew: 1 - kSkewReadFraction
  EXPECT_LT(writeFraction(1), 0.1);
  EXPECT_GT(writeFraction(2), 0.7);  // churn: 1 - kChurnReadFraction
  EXPECT_GT(writeFraction(3), 0.3);  // burst: 1 - readFraction
  EXPECT_LT(writeFraction(3), 0.7);
  EXPECT_LT(writeFraction(4), 0.1);  // wrap: skew again

  // The burst regime pins runs of burstLength to one (object, origin).
  const std::uint64_t burstBegin = 3 * params.phaseLength;
  bool sawRepeat = false;
  for (std::uint64_t i = burstBegin + 1; i < burstBegin + 200; ++i) {
    sawRepeat = sawRepeat || (events[i].object == events[i - 1].object &&
                              events[i].origin == events[i - 1].origin);
  }
  EXPECT_TRUE(sawRepeat);
}

TEST(RequestStream, TraceFileStreamReadsWhatWasWritten) {
  const net::Tree tree = net::makeStar(4);
  std::vector<RequestEvent> events;
  util::Rng rng(77);
  for (int i = 0; i < 200; ++i) {
    events.push_back(RequestEvent{
        static_cast<workload::ObjectId>(rng.nextBelow(3)),
        tree.processors()[static_cast<std::size_t>(
            rng.nextBelow(tree.processors().size()))],
        rng.nextBool(0.3)});
  }
  const std::string path = testing::TempDir() + "serve_test_trace.txt";
  {
    std::ofstream out(path);
    workload::writeTraceHeader(out, 3, tree.nodeCount());
    for (const RequestEvent& ev : events) workload::writeTraceEvent(out, ev);
  }
  TraceFileStream stream(path);
  EXPECT_EQ(stream.numObjects(), 3);
  EXPECT_EQ(stream.numNodes(), tree.nodeCount());
  std::vector<RequestEvent> batch(64);
  std::vector<RequestEvent> all;
  while (const std::size_t n = stream.fill(batch)) {
    all.insert(all.end(), batch.begin(),
               batch.begin() + static_cast<std::ptrdiff_t>(n));
  }
  ASSERT_EQ(all.size(), events.size());
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].object, events[i].object);
    EXPECT_EQ(all[i].origin, events[i].origin);
    EXPECT_EQ(all[i].isWrite, events[i].isWrite);
  }
  std::remove(path.c_str());
  EXPECT_THROW(TraceFileStream("/nonexistent/trace.txt"),
               std::runtime_error);
}

TEST(EpochServer, MatchesSequentialOnlineStrategy) {
  // With re-placement disabled, epoch-batched sharded serving is exactly
  // the sequential online strategy: same loads, same copy sets, same
  // counters — for an epoch size that slices the stream mid-object.
  util::Rng rng(31);
  const net::Tree tree = net::makeClusterNetwork(2, 3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const int numObjects = 5;
  std::vector<RequestEvent> events;
  for (int i = 0; i < 2000; ++i) {
    events.push_back(RequestEvent{
        static_cast<workload::ObjectId>(rng.nextBelow(numObjects)),
        tree.processors()[static_cast<std::size_t>(
            rng.nextBelow(tree.processors().size()))],
        rng.nextBool(0.25)});
  }

  dynamic::OnlineTreeStrategy sequential(rooted, numObjects,
                                         tree.processors().front());
  for (const RequestEvent& ev : events) sequential.serve(ev);

  ServeOptions options;
  options.epochSize = 37;  // deliberately odd, crossing object runs
  options.replaceDrift = 0.0;
  EpochServer server(rooted, numObjects, options);
  VectorStream stream(events);
  const ServeReport report = server.serve(stream);

  EXPECT_EQ(report.totalRequests, events.size());
  EXPECT_EQ(report.replications, sequential.replications());
  EXPECT_EQ(report.invalidations, sequential.invalidations());
  for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
    EXPECT_EQ(server.loads().edgeLoad(e), sequential.loads().edgeLoad(e))
        << "edge " << e;
  }
  for (workload::ObjectId x = 0; x < numObjects; ++x) {
    EXPECT_EQ(server.copySet(x), sequential.copySet(x)) << "object " << x;
  }
  EXPECT_EQ(server.aggregated().grandTotal(),
            static_cast<workload::Count>(events.size()));
}

TEST(EpochServer, BitIdenticalAcrossThreadCounts) {
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 96;
  const auto run = [&](int threads) {
    const auto stream = makeGeneratedStream("skewed", tree, params, 21,
                                            60'000);
    ServeOptions options;
    options.epochSize = 1 << 12;
    options.threads = threads;
    options.replaceDrift = 1.5;  // exercise the re-placement path too
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    EXPECT_EQ(report.totalRequests, 60'000u);
    EXPECT_EQ(report.epochs, 15u);  // ceil(60000 / 4096)
    return stateDigest(server, report);
  };
  const std::string sequential = run(1);
  EXPECT_EQ(sequential, run(2));
  EXPECT_EQ(sequential, run(5));
  EXPECT_EQ(sequential, run(0));  // hardware concurrency
}

TEST(EpochServer, RequestWeightedCutsAreMonotoneCoveringAndBalanced) {
  // A touched object weighs its request count plus objectCost; cut t is
  // the first object whose prefix weight reaches t/W of the total. Cuts
  // are ascending, cover [0, X), and no worker's weight exceeds total/W
  // plus the heaviest object's weight.
  util::Rng rng(73);
  for (int trial = 0; trial < 200; ++trial) {
    const auto objects = static_cast<int>(1 + rng.nextBelow(60));
    std::vector<std::size_t> offsets(static_cast<std::size_t>(objects) + 1, 0);
    for (int x = 0; x < objects; ++x) {
      // Mostly empty objects, a few heavy ones, occasionally one hot spot.
      const std::size_t count =
          rng.nextBool(0.5) ? 0 : rng.nextBelow(trial % 7 == 0 ? 5000 : 40);
      offsets[static_cast<std::size_t>(x) + 1] =
          offsets[static_cast<std::size_t>(x)] + count;
    }
    for (const std::size_t objectCost : {0, 5, 37}) {
      std::vector<std::size_t> weight(static_cast<std::size_t>(objects) + 1, 0);
      std::size_t heaviest = 0;
      for (std::size_t x = 0; x < static_cast<std::size_t>(objects); ++x) {
        const std::size_t count = offsets[x + 1] - offsets[x];
        const std::size_t w = count == 0 ? 0 : count + objectCost;
        weight[x + 1] = weight[x] + w;
        heaviest = std::max(heaviest, w);
      }
      const std::size_t total = weight.back();
      for (const int workers : {1, 2, 3, 4, 8}) {
        SCOPED_TRACE("trial " + std::to_string(trial) + " cost " +
                     std::to_string(objectCost) + " workers " +
                     std::to_string(workers));
        std::vector<workload::ObjectId> cuts(
            static_cast<std::size_t>(workers) + 1);
        core::requestWeightedCuts(offsets, objectCost, cuts);
        ASSERT_EQ(cuts.front(), 0);
        ASSERT_EQ(cuts.back(), objects);
        for (int t = 0; t < workers; ++t) {
          const auto begin = static_cast<std::size_t>(cuts[t]);
          const auto end = static_cast<std::size_t>(cuts[t + 1]);
          ASSERT_LE(begin, end) << "worker " << t;
          // share <= total/W + heaviest, compared exactly.
          EXPECT_LE((weight[end] - weight[begin]) *
                        static_cast<std::size_t>(workers),
                    total + heaviest * static_cast<std::size_t>(workers))
              << "worker " << t;
        }
      }
    }
  }
}

/// Per-epoch bound on the worker request imbalance that the server's
/// cuts guarantee (objects weigh requests + |V|): a worker's requests
/// are at most its weight, below total/W + heaviest, so max/mean <=
/// (total + W·heaviest) / n.
std::vector<double> imbalanceBounds(const std::vector<RequestEvent>& events,
                                    int numObjects, std::size_t epochSize,
                                    int workers, std::size_t objectCost) {
  std::vector<double> bounds;
  for (std::size_t start = 0; start < events.size(); start += epochSize) {
    const std::size_t n = std::min(epochSize, events.size() - start);
    std::vector<std::size_t> counts(static_cast<std::size_t>(numObjects));
    for (std::size_t i = start; i < start + n; ++i) {
      ++counts[static_cast<std::size_t>(events[i].object)];
    }
    std::size_t total = 0;
    std::size_t heaviest = 0;
    for (const std::size_t count : counts) {
      if (count == 0) continue;
      total += count + objectCost;
      heaviest = std::max(heaviest, count + objectCost);
    }
    bounds.push_back(static_cast<double>(
                         total + static_cast<std::size_t>(workers) * heaviest) /
                     static_cast<double>(n));
  }
  return bounds;
}

TEST(EpochServer, DigestsAreEqualForAnyThreadCountAndCuts) {
  // Request-weighted cuts move objects between workers as the thread
  // count changes; per-object state is independent and every merged
  // quantity is an integer sum, so every digest must stay equal — on a
  // Zipf stream (re-placement on), on an epoch whose requests all hit
  // one object (W − 1 empty ranges), and on a server restricted to an
  // ownership mask.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  constexpr int kObjects = 120;
  constexpr std::size_t kEpoch = 1 << 12;
  workload::StreamParams params;
  params.numObjects = kObjects;
  std::vector<RequestEvent> zipf(50'000);
  ASSERT_EQ(makeGeneratedStream("skewed", tree, params, 61, zipf.size())
                ->fill(zipf),
            zipf.size());
  util::Rng rng(5);
  std::vector<RequestEvent> oneObject(3 * kEpoch);
  for (RequestEvent& ev : oneObject) {
    ev = RequestEvent{37,
                      tree.processors()[static_cast<std::size_t>(
                          rng.nextBelow(tree.processors().size()))],
                      rng.nextBool(0.2)};
  }
  std::vector<bool> mask(kObjects);
  for (int x = 0; x < kObjects; ++x) mask[static_cast<std::size_t>(x)] = x % 3 != 1;

  struct Case {
    const char* name;
    const std::vector<RequestEvent>* events;
    std::vector<bool> owned;
  };
  const std::vector<Case> cases = {
      {"zipf", &zipf, {}}, {"one-object", &oneObject, {}}, {"mask", &zipf, mask}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    std::string sequential;
    for (const int threads : {1, 2, 3, 4, 8}) {
      SCOPED_TRACE(threads);
      ServeOptions options;
      options.epochSize = kEpoch;
      options.threads = threads;
      options.replaceDrift = 1.5;  // exercise the lazy handoff path too
      EpochServer server(rooted, kObjects, options, c.owned);
      VectorStream stream(*c.events);
      const ServeReport report = server.serve(stream);
      std::ostringstream digest;
      digest << stateDigest(server, report) << '|' << report.totalRequests
             << '|' << report.epochs;
      if (threads == 1) {
        sequential = digest.str();
      } else {
        EXPECT_EQ(digest.str(), sequential);
      }
      // Worker imbalance is deterministic and, without a mask (every
      // request counts), within the cuts' guarantee.
      const std::vector<EpochRecord>& log = server.epochLog();
      if (c.owned.empty()) {
        const std::vector<double> bounds = imbalanceBounds(
            *c.events, kObjects, kEpoch, threads,
            static_cast<std::size_t>(tree.nodeCount()));
        ASSERT_EQ(log.size(), bounds.size());
        for (std::size_t e = 0; e < log.size(); ++e) {
          EXPECT_GE(log[e].workerImbalance, 1.0) << "epoch " << e;
          EXPECT_LE(log[e].workerImbalance, bounds[e] + 1e-9) << "epoch " << e;
        }
      }
      if (threads == 1) {
        for (const EpochRecord& r : log) EXPECT_EQ(r.workerImbalance, 1.0);
      }
      if (std::string(c.name) == "one-object") {
        // One hot object: its worker serves everything.
        EXPECT_DOUBLE_EQ(report.workerImbalance, threads);
      }
    }
  }
}

TEST(EpochServer, ReplacementFiresUnderSlowAdaptationAndHelps) {
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 64;
  params.readFraction = 0.995;
  struct Outcome {
    ServeReport report;
    std::uint64_t markedEpochs = 0;
  };
  const auto run = [&](double drift) {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = 1 << 13;
    options.replaceDrift = drift;
    options.policy = "tree-counters:threshold=64";  // slow online adaptation
    EpochServer server(rooted, params.numObjects, options);
    Outcome outcome{server.serve(*stream), 0};
    for (const EpochRecord& record : server.epochLog()) {
      outcome.markedEpochs += record.replaced ? 1 : 0;
    }
    return outcome;
  };
  const Outcome off = run(0.0);
  const Outcome on = run(2.0);
  EXPECT_EQ(off.report.replacements, 0u);
  EXPECT_GT(on.report.replacements, 0u);
  EXPECT_LE(on.report.congestion, off.report.congestion);
  // The epoch log marks exactly the re-placed epochs.
  EXPECT_EQ(on.markedEpochs, on.report.replacements);
}

TEST(EpochServer, EpochLogIsConsistent) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 8;
  const auto stream = makeGeneratedStream("bursty", tree, params, 3, 10'000);
  ServeOptions options;
  options.epochSize = 1 << 10;
  EpochServer server(rooted, params.numObjects, options);
  const ServeReport report = server.serve(*stream);
  EXPECT_EQ(report.epochs, server.epochLog().size());
  std::uint64_t total = 0;
  for (const EpochRecord& record : server.epochLog()) {
    total += record.requests;
    EXPECT_GT(record.requests, 0u);
    EXPECT_LE(record.requests, options.epochSize);
    EXPECT_GE(record.ratio, 0.0);
  }
  EXPECT_EQ(total, report.totalRequests);
  EXPECT_EQ(report.totalRequests, 10'000u);
}

TEST(EpochServer, InfiniteRatioIsAFixedPointThroughJson) {
  // Reads with zero write contention: the analytic lower bound is 0
  // while the online strategy pays for the remote read, so the epoch
  // ratio is +inf. The JSON pipeline must carry that stably:
  // JsonRecords emits non-finite doubles as null, parses null back as
  // NaN, and NaN re-emits as null — emit→parse→emit is a fixed point.
  const net::Tree tree = net::makeStar(3);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  ServeOptions options;
  options.epochSize = 8;
  EpochServer server(rooted, 1, options);
  // The initial copy sits on the first processor; read from another.
  const net::NodeId reader = tree.processors().back();
  ASSERT_NE(reader, tree.processors().front());
  VectorStream stream({RequestEvent{0, reader, false}});
  const ServeReport report = server.serve(stream);
  ASSERT_EQ(report.lowerBound, 0.0);
  ASSERT_GT(report.congestion, 0.0);
  ASSERT_TRUE(std::isinf(report.ratio));
  ASSERT_EQ(server.epochLog().size(), 1u);
  ASSERT_TRUE(std::isinf(server.epochLog().front().ratio));

  // Emit the epoch record through hbn_serve --json's writer (wall-clock
  // fields zeroed: they are nondeterministic and not under test).
  EpochRecord record = server.epochLog().front();
  record.wallMs = 0.0;
  record.latencyMsP50 = record.latencyMsP99 = record.latencyMsP999 = 0.0;
  util::JsonRecords records;
  records.beginRecord();
  records.field("kind", "epoch");
  writeEpochFields(records, record);
  std::ostringstream oss;
  records.write(oss);
  const std::string emitted = oss.str();
  EXPECT_NE(emitted.find("\"ratio\": null"), std::string::npos) << emitted;

  const std::vector<util::ParsedRecord> parsed = util::parseRecords(emitted);
  ASSERT_EQ(parsed.size(), 1u);
  util::JsonRecords reEmitted;
  reEmitted.beginRecord();
  for (const util::ParsedField& field : parsed.front()) {
    switch (field.kind) {
      case util::ParsedField::Kind::string:
        reEmitted.field(field.key, field.text);
        break;
      case util::ParsedField::Kind::boolean:
        reEmitted.field(field.key, field.number == 1.0);
        break;
      case util::ParsedField::Kind::number:
      case util::ParsedField::Kind::null:
        // null parses as NaN; re-emitting NaN produces null again.
        reEmitted.field(field.key, field.number);
        break;
    }
  }
  std::ostringstream second;
  reEmitted.write(second);
  EXPECT_EQ(emitted, second.str());
}

TEST(EpochServer, PipelinedMatchesBarrierBitForBit) {
  // The pipelined engine (threaded ingest + lazy per-object handoff
  // application) must produce exactly the barrier engine's deterministic
  // state: counters, copy sets, edge loads, handoff count — on a skewed
  // drift workload that actually fires re-placements, for 1 and N
  // worker threads. Only wall-clock observables may differ.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 64;
  params.readFraction = 0.995;
  struct Outcome {
    std::string digest;
    std::vector<bool> replaced;
    std::uint64_t replacements = 0;
    double handoffs = 0.0;
  };
  const auto run = [&](bool pipeline, int threads) {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = 1 << 13;
    options.threads = threads;
    options.replaceDrift = 2.0;
    options.pipeline = pipeline;
    options.policy = "tree-counters:threshold=64";  // slow adaptation
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    EXPECT_EQ(report.totalRequests, 120'000u);
    Outcome outcome;
    outcome.digest = stateDigest(server, report);
    for (const EpochRecord& record : server.epochLog()) {
      outcome.replaced.push_back(record.replaced);
    }
    outcome.replacements = report.replacements;
    outcome.handoffs = report.policyMetrics.at("policy.handoffs");
    return outcome;
  };
  const Outcome barrier = run(false, 1);
  ASSERT_GT(barrier.replacements, 0u)
      << "drift never fired; the test is not exercising the handoff path";
  for (const int threads : {1, 3}) {
    const Outcome pipelined = run(true, threads);
    EXPECT_EQ(pipelined.digest, barrier.digest) << "threads " << threads;
    // The serve-only drift trigger makes the schedule mode-independent:
    // the same epochs are marked replaced even though migration traffic
    // lands at different times.
    EXPECT_EQ(pipelined.replaced, barrier.replaced) << "threads " << threads;
    EXPECT_EQ(pipelined.handoffs, barrier.handoffs) << "threads " << threads;
  }
  // And the static policy (memoised monolithic handoff pass) agrees too.
  const auto runStatic = [&](bool pipeline) {
    const auto stream =
        makeGeneratedStream("skewed", tree, params, 9, 120'000);
    ServeOptions options;
    options.epochSize = 1 << 13;
    options.replaceDrift = 2.0;
    options.pipeline = pipeline;
    options.policy = "static:placement=nibble";
    EpochServer server(rooted, params.numObjects, options);
    const ServeReport report = server.serve(*stream);
    EXPECT_EQ(report.totalRequests, 120'000u);
    return stateDigest(server, report);
  };
  EXPECT_EQ(runStatic(true), runStatic(false));
}

// The ownership mask partitions serving, never aggregation: three
// servers restricted to x % 3 == k, stepped epoch by epoch over the same
// batches, must together serve exactly what one unrestricted server
// serves — per-epoch serve loads, cumulative loads and counters sum to
// its values after every epoch (also across a barrier re-placement),
// and each keeps the full matrix, so its lower bound equals the
// unrestricted one.
TEST(EpochServer, OwnedMasksUnionToTheUnrestrictedServer) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  constexpr int kObjects = 48;
  constexpr int kShards = 3;
  ServeOptions options;
  options.replaceDrift = 0.0;  // drift off: epochs are stepped by hand
  EpochServer full(rooted, kObjects, options);
  std::vector<std::unique_ptr<EpochServer>> parts;
  for (int k = 0; k < kShards; ++k) {
    std::vector<bool> owned(kObjects);
    for (int x = 0; x < kObjects; ++x) owned[x] = x % kShards == k;
    parts.push_back(
        std::make_unique<EpochServer>(rooted, kObjects, options, owned));
  }

  workload::StreamParams params;
  params.numObjects = kObjects;
  const auto stream = makeGeneratedStream("skewed", tree, params, 9, 20'000);
  EpochBatch batch;
  batch.raw.resize(2048);
  const int edges = tree.edgeCount();
  const auto expectUnion = [&](const core::LoadMap& whole,
                               const std::vector<core::LoadMap>& pieces) {
    for (net::EdgeId e = 0; e < edges; ++e) {
      core::Count sum = 0;
      for (const core::LoadMap& piece : pieces) sum += piece.edgeLoad(e);
      EXPECT_EQ(sum, whole.edgeLoad(e)) << "edge " << e;
    }
  };
  for (std::uint64_t epoch = 0;; ++epoch) {
    SCOPED_TRACE(epoch);
    batch.n = stream->fill(batch.raw);
    if (batch.n == 0) break;
    batch.bucket(kObjects, tree.nodeCount());
    const core::LoadMap step = full.serveBatch(batch, epoch);
    std::vector<core::LoadMap> steps;
    for (auto& part : parts) steps.push_back(part->serveBatch(batch, epoch));
    expectUnion(step, steps);
    if (epoch == 3) {
      // A barrier re-placement migrates each object on its owner only.
      const core::LoadMap migration = full.replaceNow(epoch);
      std::vector<core::LoadMap> migrations;
      for (auto& part : parts) migrations.push_back(part->replaceNow(epoch));
      expectUnion(migration, migrations);
    }
    std::vector<core::LoadMap> totals;
    core::Count replications = 0;
    core::Count invalidations = 0;
    std::uint64_t owned = 0;
    for (const auto& part : parts) {
      totals.push_back(part->loads());
      replications += part->replications();
      invalidations += part->invalidations();
      owned += part->ownedRequests();
      EXPECT_EQ(part->lowerBound(), full.lowerBound());
      EXPECT_EQ(part->servedTotal(), full.servedTotal());
    }
    expectUnion(full.loads(), totals);
    EXPECT_EQ(replications, full.replications());
    EXPECT_EQ(invalidations, full.invalidations());
    EXPECT_EQ(owned, full.ownedRequests());
  }
  EXPECT_EQ(full.ownedRequests(), 20'000u);
  EXPECT_GT(full.replications(), 0);
  for (workload::ObjectId x = 0; x < kObjects; ++x) {
    EXPECT_EQ(parts[static_cast<std::size_t>(x % kShards)]->copySet(x),
              full.copySet(x))
        << "object " << x;
  }
}

TEST(EpochServer, LatencyPercentilesAreSampledAndOrdered) {
  const net::Tree tree = net::makeClusterNetwork(2, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 16;
  const auto run = [&](std::size_t latencySample) {
    const auto stream =
        makeGeneratedStream("bursty", tree, params, 5, 20'000);
    ServeOptions options;
    options.epochSize = 1 << 10;
    options.latencySample = latencySample;
    EpochServer server(rooted, params.numObjects, options);
    return server.serve(*stream);
  };
  const ServeReport on = run(1024);
  EXPECT_GT(on.latencySamples, 0u);
  EXPECT_GE(on.latencyMsP50, 0.0);
  EXPECT_LE(on.latencyMsP50, on.latencyMsP99);
  EXPECT_LE(on.latencyMsP99, on.latencyMsP999);
  EXPECT_LE(on.epochMsP50, on.epochMsP99);
  EXPECT_LE(on.epochMsP99, on.epochMsP999);

  const ServeReport off = run(0);
  EXPECT_EQ(off.latencySamples, 0u);
  EXPECT_EQ(off.latencyMsP50, 0.0);
  EXPECT_EQ(off.latencyMsP99, 0.0);
  EXPECT_EQ(off.latencyMsP999, 0.0);
}

TEST(EpochServer, MillionRequestStreamNeverMaterialises) {
  // Two million requests through a small epoch buffer: RSS must grow by
  // far less than the ~24 MB the materialised stream would take, and the
  // server's own per-request buffering stays at two epochs.
  const net::Tree tree = net::makeClusterNetwork(4, 8);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  workload::StreamParams params;
  params.numObjects = 256;
  constexpr std::uint64_t kRequests = 2'000'000;
  const auto stream =
      makeGeneratedStream("skewed", tree, params, 17, kRequests);
  ServeOptions options;
  options.epochSize = 1 << 14;
  options.threads = 2;
  EpochServer server(rooted, params.numObjects, options);

  const long rssBefore = maxRssKb();
  const ServeReport report = server.serve(*stream);
  const long rssAfter = maxRssKb();

  EXPECT_EQ(report.totalRequests, kRequests);
  EXPECT_GE(report.epochs, kRequests / options.epochSize);
  // Buffering: two pipeline slots, each one arrival-order epoch + one
  // bucketed epoch + CSR offsets + a handful of arrival stamps.
  EXPECT_LT(report.epochBufferBytes,
            2 * (2 * options.epochSize * sizeof(RequestEvent) +
                 (static_cast<std::uint64_t>(params.numObjects) + 320) *
                     sizeof(std::size_t)));
  EXPECT_LT(rssAfter - rssBefore, 16 * 1024)  // < 16 MB growth
      << "serving resident set grew as if the stream were materialised";
}

}  // namespace
}  // namespace hbn::serve
