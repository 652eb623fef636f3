// Deterministic fault injection and graceful degradation.
//
// Covers the spec grammar (positives and loud negatives), the injector's
// trigger-budget semantics, and the three pipeline seams end to end:
// an injected ingest stall degrades exactly the armed epoch to inline
// assembly without changing a single bit of the result; a failing §4
// handoff publication is retried within budget (digest-neutral) and
// surfaces as serve::Error{Handoff} when the budget is exhausted; a
// shard throw propagates as serve::Error{Serve} and — the teardown
// regression — leaves the server and its ingest thread destructible
// and the process healthy.
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/fault.h"
#include "hbn/workload/generators.h"

namespace hbn::serve {
namespace {

using util::FaultInjector;
using util::FaultKind;
using util::FaultSpec;
using util::parseFaultSpec;
using workload::ObjectId;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;
constexpr std::uint64_t kRequests = 20'000;

// -------------------------------------------------------------------------
// Spec grammar.
// -------------------------------------------------------------------------

TEST(FaultSpecTest, ParsesEveryKindAndOption) {
  {
    const FaultSpec s = parseFaultSpec("ingest-stall@epoch3");
    EXPECT_EQ(s.kind, FaultKind::IngestStall);
    EXPECT_EQ(s.epoch, 3u);
    EXPECT_DOUBLE_EQ(s.stallMs, 50.0);
    EXPECT_EQ(s.times, 1);
  }
  {
    const FaultSpec s = parseFaultSpec("ingest-stall@epoch7:ms=12.5:times=4");
    EXPECT_EQ(s.epoch, 7u);
    EXPECT_DOUBLE_EQ(s.stallMs, 12.5);
    EXPECT_EQ(s.times, 4);
  }
  {
    const FaultSpec s = parseFaultSpec("shard-throw@epoch5:shard2");
    EXPECT_EQ(s.kind, FaultKind::ShardThrow);
    EXPECT_EQ(s.epoch, 5u);
    EXPECT_EQ(s.shard, 2);
  }
  {
    const FaultSpec s = parseFaultSpec("handoff-fail@epoch4:times=2");
    EXPECT_EQ(s.kind, FaultKind::HandoffFail);
    EXPECT_EQ(s.epoch, 4u);
    EXPECT_EQ(s.times, 2);
  }
}

TEST(FaultSpecTest, RejectsGrammarViolations) {
  for (const char* bad : {
           "",                             // empty
           "explode@epoch1",               // unknown kind
           "shard-throw",                  // missing @epoch
           "shard-throw@epoch",            // missing epoch number
           "shard-throw@3",                // missing 'epoch' keyword
           "shard-throw@epoch2:bogus",     // unknown option
           "shard-throw@epoch2:ms=5",      // ms only for ingest-stall
           "ingest-stall@epoch2:shard1",   // shard only for shard-throw
           "handoff-fail@epoch2:times=0",  // times must be >= 1
       }) {
    EXPECT_THROW((void)parseFaultSpec(bad), std::invalid_argument) << bad;
  }
}

TEST(FaultInjectorTest, TriggerBudgetCountsDown) {
  FaultInjector injector;
  injector.addSpecs("shard-throw@epoch5:shard1:times=2,handoff-fail@epoch3");
  EXPECT_FALSE(injector.empty());
  // Wrong epoch / wrong shard: no fire.
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 4, 1));
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 5, 0));
  // Two triggers, then disarmed.
  EXPECT_TRUE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_TRUE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_FALSE(injector.fire(FaultKind::ShardThrow, 5, 1));
  EXPECT_TRUE(injector.fire(FaultKind::HandoffFail, 3, -1));
  EXPECT_EQ(injector.triggered(), 3u);

  FaultInjector stalls;
  stalls.addSpecs("ingest-stall@epoch2:ms=7.5");
  EXPECT_DOUBLE_EQ(stalls.stallMs(1), 0.0);
  EXPECT_DOUBLE_EQ(stalls.stallMs(2), 7.5);
  EXPECT_DOUBLE_EQ(stalls.stallMs(2), 0.0);  // budget spent

  EXPECT_EQ(util::makeFaultInjector(""), nullptr);
  EXPECT_NE(util::makeFaultInjector("handoff-fail@epoch1"), nullptr);
}

// -------------------------------------------------------------------------
// End-to-end seams.
// -------------------------------------------------------------------------

std::vector<workload::RequestEvent> makeEvents(const net::Tree& tree,
                                               std::uint64_t seed) {
  workload::StreamParams params;
  params.numObjects = kObjects;
  params.readFraction = 0.9;
  const auto stream =
      makeGeneratedStream("skewed", tree, params, seed, kRequests);
  std::vector<workload::RequestEvent> events(kRequests);
  EXPECT_EQ(stream->fill(events), kRequests);
  return events;
}

ServeOptions makeOptions(int threads, bool pipeline) {
  ServeOptions options;
  options.epochSize = kEpochSize;
  options.threads = threads;
  options.pipeline = pipeline;
  options.replaceDrift = 1.2;
  options.policy = "tree-counters";
  return options;
}

std::string digest(const EpochServer& server, const ServeReport& report) {
  std::ostringstream oss;
  oss.precision(17);
  oss << report.congestion << '|' << report.replacements << '|'
      << report.replications << '|' << report.invalidations;
  for (const core::Count load : server.loads().edgeLoads()) {
    oss << ',' << load;
  }
  for (ObjectId x = 0; x < kObjects; ++x) {
    oss << ';';
    for (const net::NodeId v : server.copySet(x)) oss << v << ' ';
  }
  return oss.str();
}

struct RunResult {
  std::string digest;
  ServeReport report;
  std::vector<EpochRecord> log;
};

RunResult run(const net::RootedTree& rooted,
              const std::vector<workload::RequestEvent>& events,
              const ServeOptions& options) {
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  RunResult result;
  result.report = server.serve(stream);
  result.digest = digest(server, result.report);
  result.log = server.epochLog();
  return result;
}

TEST(FaultInjectionTest, IngestStallDegradesEpochBitIdentically) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 61);
  const RunResult reference = run(rooted, events, makeOptions(3, true));

  ServeOptions options = makeOptions(3, true);
  // Stall far beyond the watchdog: epoch 2 must be assembled inline.
  options.faults = util::makeFaultInjector("ingest-stall@epoch2:ms=5000");
  options.stallTimeoutMs = 25.0;
  const RunResult degraded = run(rooted, events, options);
  EXPECT_EQ(options.faults->triggered(), 1u);
  EXPECT_GE(degraded.report.degradedEpochs, 1u);
  ASSERT_GT(degraded.log.size(), 2u);
  EXPECT_TRUE(degraded.log[2].degraded);
  EXPECT_EQ(degraded.digest, reference.digest);
}

TEST(FaultInjectionTest, HandoffFailureRetriesWithinBudget) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 67);
  const RunResult reference = run(rooted, events, makeOptions(3, true));
  // The injection must land on a real §4 pass: find the first epoch the
  // reference run re-placed at.
  std::uint64_t driftEpoch = 0;
  bool found = false;
  for (const EpochRecord& record : reference.log) {
    if (record.replaced) {
      driftEpoch = record.index;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "reference run never triggered a handoff pass";

  ServeOptions options = makeOptions(3, true);
  options.faults = util::makeFaultInjector(
      "handoff-fail@epoch" + std::to_string(driftEpoch) + ":times=2");
  options.handoffRetries = 3;
  options.handoffBackoffMs = 0.0;
  const RunResult retried = run(rooted, events, options);
  EXPECT_EQ(retried.report.handoffRetries, 2u);
  EXPECT_EQ(options.faults->triggered(), 2u);
  EXPECT_EQ(retried.digest, reference.digest);

  // Exhausting the budget surfaces as serve::Error{Handoff} with the
  // dedicated exit code.
  ServeOptions doomed = makeOptions(3, true);
  doomed.faults = util::makeFaultInjector(
      "handoff-fail@epoch" + std::to_string(driftEpoch) + ":times=10");
  doomed.handoffRetries = 2;
  doomed.handoffBackoffMs = 0.0;
  EpochServer server(rooted, kObjects, doomed);
  VectorStream stream({events.begin(), events.end()});
  try {
    (void)server.serve(stream);
    FAIL() << "exhausted handoff retries did not surface";
  } catch (const Error& e) {
    EXPECT_EQ(e.stage(), Stage::Handoff);
    EXPECT_EQ(e.epoch(), driftEpoch);
    EXPECT_EQ(e.exitCode(), 12);
  }
}

// The teardown regression (satellite of the robustness issue): a worker
// throw mid-epoch must propagate as serve::Error{Serve} and leave the
// server — including its double-buffered ingest thread — cleanly
// destructible, in both engines and with multiple workers.
TEST(FaultInjectionTest, ShardThrowPropagatesAndTearsDownCleanly) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 71);
  for (const bool pipeline : {false, true}) {
    for (const int threads : {1, 3}) {
      SCOPED_TRACE(std::string(pipeline ? "pipelined" : "barrier") +
                   " threads=" + std::to_string(threads));
      ServeOptions options = makeOptions(threads, pipeline);
      options.faults = util::makeFaultInjector("shard-throw@epoch1");
      {
        EpochServer server(rooted, kObjects, options);
        VectorStream stream({events.begin(), events.end()});
        try {
          (void)server.serve(stream);
          FAIL() << "injected shard throw did not surface";
        } catch (const Error& e) {
          EXPECT_EQ(e.stage(), Stage::Serve);
          EXPECT_EQ(e.epoch(), 1u);
          EXPECT_EQ(e.exitCode(), 11);
        }
      }  // server + ingest thread destruct here; a hang fails the test
    }
  }
  // The process is healthy afterwards: a clean run still works.
  const RunResult after = run(rooted, events, makeOptions(3, true));
  EXPECT_EQ(after.report.totalRequests, kRequests);
}

// Request-weighted cuts can leave a worker's range empty (here every
// request hits one object, so with three workers worker 1 owns no
// object at all); the injected shard throw still fires on that worker,
// once, at the start of its range.
TEST(FaultInjectionTest, ShardThrowFiresOnAnEmptyRange) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  std::vector<workload::RequestEvent> events(3 * kEpochSize);
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i] = workload::RequestEvent{
        5, tree.processors()[i % tree.processors().size()], i % 7 == 0};
  }
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    ServeOptions options = makeOptions(3, pipeline);
    options.faults = util::makeFaultInjector("shard-throw@epoch1:shard1");
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)server.serve(stream);
      FAIL() << "injected shard throw on an empty range did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Serve);
      EXPECT_EQ(e.epoch(), 1u);
      EXPECT_NE(std::string(e.what()).find("worker 1"), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(options.faults->triggered(), 1u);
  }
}

// A stream failure (out-of-range object) is attributed to the ingest
// stage in both engines, not swallowed or left as a bare exception.
TEST(FaultInjectionTest, StreamFailureSurfacesAsIngestError) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  std::vector<workload::RequestEvent> events(kEpochSize * 2,
                                             workload::RequestEvent{0, 0, false});
  events[kEpochSize + 5].object = kObjects + 40;  // poison epoch 1
  for (const bool pipeline : {false, true}) {
    SCOPED_TRACE(pipeline ? "pipelined" : "barrier");
    EpochServer server(rooted, kObjects, makeOptions(2, pipeline));
    VectorStream stream({events.begin(), events.end()});
    try {
      (void)server.serve(stream);
      FAIL() << "poisoned stream did not surface";
    } catch (const Error& e) {
      EXPECT_EQ(e.stage(), Stage::Ingest);
      EXPECT_EQ(e.epoch(), 1u);
      EXPECT_EQ(e.exitCode(), 10);
      EXPECT_NE(e.cause().find("out of range"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace hbn::serve
