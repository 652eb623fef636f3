// Checkpoint/restore conformance: every registered policy spec must
// survive the kill-and-restore property — serve with epoch-boundary
// checkpointing, die mid-epoch (injected shard throw), restore the
// latest snapshot into a fresh server, re-serve the remaining stream,
// and end bit-identical to an uninterrupted run — across thread counts
// and both engines. Plus: checkpointing itself is digest-neutral, a
// restored server equals the server it snapshotted, and corrupted or
// truncated snapshots are rejected loudly instead of half-applied —
// including every truncation, thousands of re-checksummed byte flips,
// and hand-crafted policy states that break one invariant each.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/dynamic/online_policy.h"
#include "hbn/net/generators.h"
#include "hbn/serve/checkpoint.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/serve/error.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/bytes.h"
#include "hbn/util/fault.h"
#include "hbn/workload/generators.h"

// Allocation probe for the reader fuzz below: while armed, records the
// largest single operator new request, so a test can check that a
// corrupted length prefix never drives an allocation past the input's
// size. Replaces the whole unaligned operator new/delete family (so
// every pairing stays malloc/free, also under the sanitizers).
namespace {
std::atomic<bool> gProbeArmed{false};
std::atomic<std::size_t> gLargestAlloc{0};

void* probedAlloc(std::size_t n) noexcept {
  if (gProbeArmed.load(std::memory_order_relaxed)) {
    std::size_t seen = gLargestAlloc.load(std::memory_order_relaxed);
    while (n > seen && !gLargestAlloc.compare_exchange_weak(seen, n)) {
    }
  }
  return std::malloc(n == 0 ? 1 : n);
}

void* probedAllocOrThrow(std::size_t n) {
  if (void* p = probedAlloc(n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return probedAllocOrThrow(n); }
void* operator new[](std::size_t n) { return probedAllocOrThrow(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return probedAlloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return probedAlloc(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace hbn::serve {
namespace {

using core::Count;
using workload::ObjectId;

constexpr int kObjects = 64;
constexpr std::size_t kEpochSize = 1 << 10;
constexpr std::uint64_t kRequests = 20'000;
constexpr std::uint64_t kKillEpoch = 10;

/// Every registered policy in its default form plus option-ful variants
/// — registry-driven, so a policy registered tomorrow joins the
/// kill-and-restore suite without edits.
std::vector<std::string> conformanceSpecs() {
  std::vector<std::string> specs =
      dynamic::OnlinePolicyRegistry::global().names();
  std::sort(specs.begin(), specs.end());
  specs.push_back("tree-counters:threshold=3,contract=0");
  specs.push_back("static:placement=extended-nibble");
  specs.push_back("adaptive:members=tree-counters+owner-only,window=3");
  return specs;
}

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

ServeOptions makeOptions(const std::string& spec, int threads,
                         bool pipeline) {
  ServeOptions options;
  options.epochSize = kEpochSize;
  options.threads = threads;
  options.pipeline = pipeline;
  options.replaceDrift = 1.2;  // drift passes in play
  options.policy = spec;
  return options;
}

/// Fresh unique checkpoint directory under the test temp root.
std::filesystem::path freshDir(const std::string& tag) {
  static int counter = 0;
  const std::filesystem::path dir = std::filesystem::path(
      ::testing::TempDir()) / ("hbn-checkpoint-" + tag + "-" +
                               std::to_string(counter++));
  std::filesystem::remove_all(dir);
  return dir;
}

std::string serveUninterrupted(
    const net::RootedTree& rooted,
    const std::vector<workload::RequestEvent>& events,
    const ServeOptions& options) {
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  const ServeReport report = server.serve(stream);
  return stateDigest(server, report);
}

// ---------------------------------------------------------------------------
// The headline property: kill mid-epoch, restore the latest snapshot,
// re-serve the rest — final state bit-identical to the uninterrupted
// run, for every policy × engine × thread count.
// ---------------------------------------------------------------------------
TEST(Checkpoint, KillRestoreIsBitIdentical) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 43);
  for (const std::string& spec : conformanceSpecs()) {
    for (const bool pipeline : {false, true}) {
      for (const int threads : {1, 3}) {
        SCOPED_TRACE(spec + (pipeline ? " pipelined" : " barrier") +
                     " threads=" + std::to_string(threads));
        const std::string reference = serveUninterrupted(
            rooted, events, makeOptions(spec, threads, pipeline));

        // The doomed run: checkpoint every epoch, die at kKillEpoch.
        const std::filesystem::path dir = freshDir("kill");
        {
          ServeOptions options = makeOptions(spec, threads, pipeline);
          options.checkpointDir = dir.string();
          options.faults = util::makeFaultInjector(
              "shard-throw@epoch" + std::to_string(kKillEpoch));
          EpochServer server(rooted, kObjects, options);
          VectorStream stream({events.begin(), events.end()});
          try {
            (void)server.serve(stream);
            FAIL() << "injected shard throw did not surface";
          } catch (const Error& e) {
            EXPECT_EQ(e.stage(), Stage::Serve);
            EXPECT_EQ(e.epoch(), kKillEpoch);
          }
        }

        // Restore the latest snapshot into a fresh server and finish
        // the stream from the checkpoint's cursor.
        const CheckpointData data =
            readCheckpointFile(latestCheckpointPath(dir.string()));
        EXPECT_EQ(data.epochs, kKillEpoch);
        EXPECT_EQ(data.servedTotal, kKillEpoch * kEpochSize);
        EpochServer server(rooted, kObjects,
                           makeOptions(spec, threads, pipeline));
        server.restoreFrom(data);
        VectorStream stream({events.begin(), events.end()});
        skipRequests(stream, data.servedTotal);
        const ServeReport report = server.serve(stream);
        EXPECT_EQ(report.totalRequests, kRequests - data.servedTotal);
        EXPECT_EQ(stateDigest(server, report), reference);
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Checkpointing must not change what is served: a checkpointed run ends
// with the same digest as a plain one, and a server restored from the
// final snapshot equals the server that wrote it.
// ---------------------------------------------------------------------------
TEST(Checkpoint, CheckpointingIsDigestNeutral) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 47);
  for (const std::string& spec : conformanceSpecs()) {
    SCOPED_TRACE(spec);
    const std::string reference =
        serveUninterrupted(rooted, events, makeOptions(spec, 3, true));

    const std::filesystem::path dir = freshDir("neutral");
    ServeOptions options = makeOptions(spec, 3, true);
    options.checkpointDir = dir.string();
    options.checkpointEvery = 3;
    EpochServer server(rooted, kObjects, options);
    VectorStream stream({events.begin(), events.end()});
    const ServeReport report = server.serve(stream);
    EXPECT_GT(report.checkpoints, 0u);
    EXPECT_EQ(stateDigest(server, report), reference);

    // The final snapshot captures end-of-run state exactly.
    const CheckpointData data =
        readCheckpointFile(latestCheckpointPath(dir.string()));
    EXPECT_EQ(data.servedTotal, kRequests);
    EpochServer twin(rooted, kObjects, makeOptions(spec, 3, true));
    twin.restoreFrom(data);
    for (net::EdgeId e = 0; e < tree.edgeCount(); ++e) {
      ASSERT_EQ(twin.loads().edgeLoad(e), server.loads().edgeLoad(e))
          << "edge " << e;
    }
    for (ObjectId x = 0; x < kObjects; ++x) {
      ASSERT_EQ(twin.copySet(x), server.copySet(x)) << "object " << x;
    }
    std::filesystem::remove_all(dir);
  }
}

// ---------------------------------------------------------------------------
// Negatives: corruption, truncation, wrong target, reuse.
// ---------------------------------------------------------------------------

CheckpointData sampleCheckpoint(const net::RootedTree& rooted,
                                const std::vector<workload::RequestEvent>&
                                    events,
                                const std::string& spec,
                                std::filesystem::path& dirOut) {
  dirOut = freshDir("negative");
  ServeOptions options = makeOptions(spec, 1, false);
  options.checkpointDir = dirOut.string();
  EpochServer server(rooted, kObjects, options);
  VectorStream stream({events.begin(), events.end()});
  (void)server.serve(stream);
  return readCheckpointFile(latestCheckpointPath(dirOut.string()));
}

TEST(Checkpoint, CorruptedAndTruncatedSnapshotsAreRejected) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 51);
  std::filesystem::path dir;
  (void)sampleCheckpoint(rooted, events, "tree-counters", dir);
  const std::string path = latestCheckpointPath(dir.string());

  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream slurp;
    slurp << in.rdbuf();
    text = slurp.str();
  }
  ASSERT_GT(text.size(), 200u);

  // One flipped byte in the middle: checksum mismatch, named as such.
  {
    std::string corrupt = text;
    corrupt[text.size() / 2] ^= 0x20;
    std::istringstream in(corrupt);
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  // Truncation drops the checksum line entirely.
  {
    std::istringstream in(text.substr(0, text.size() / 2));
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  // Garbage is not a checkpoint.
  {
    std::istringstream in("hello world\n");
    EXPECT_THROW((void)readCheckpoint(in), std::invalid_argument);
  }
  std::filesystem::remove_all(dir);
}

TEST(Checkpoint, RestoreValidatesTargetServer) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 53);
  std::filesystem::path dir;
  const CheckpointData data =
      sampleCheckpoint(rooted, events, "tree-counters", dir);

  // Wrong policy.
  {
    EpochServer server(rooted, kObjects,
                       makeOptions("full-replication", 1, false));
    EXPECT_THROW(server.restoreFrom(data), std::invalid_argument);
  }
  // Wrong topology.
  {
    const net::Tree other = net::makeClusterNetwork(2, 3);
    const net::RootedTree otherRooted(other, other.defaultRoot());
    EpochServer server(otherRooted, kObjects,
                       makeOptions("tree-counters", 1, false));
    EXPECT_THROW(server.restoreFrom(data), std::invalid_argument);
  }
  // A server that has already served refuses restoration.
  {
    EpochServer server(rooted, kObjects,
                       makeOptions("tree-counters", 1, false));
    VectorStream stream({events.begin(), events.end()});
    (void)server.serve(stream);
    EXPECT_THROW(server.restoreFrom(data), std::logic_error);
  }
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The epoch size and drift factor decide the epoch boundaries and the
// drift trigger's schedule, so a restore under other values would serve
// a different run from the same state: both are recorded and checked.
// ---------------------------------------------------------------------------

/// Runs `restore` and checks it throws std::invalid_argument whose
/// message contains `why`.
template <typename F>
void expectInvalid(F&& restore, const std::string& why) {
  try {
    restore();
    ADD_FAILURE() << "accepted; expected a rejection naming '" << why << "'";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
        << e.what();
  }
}

TEST(Checkpoint, RestoreRejectsAnotherEpochSizeOrDrift) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 57);
  std::filesystem::path dir;
  const CheckpointData data =
      sampleCheckpoint(rooted, events, "tree-counters", dir);
  EXPECT_EQ(data.epochSize, kEpochSize);
  EXPECT_EQ(data.replaceDrift, 1.2);
  {
    ServeOptions options = makeOptions("tree-counters", 1, false);
    options.epochSize = kEpochSize / 2;
    EpochServer server(rooted, kObjects, options);
    expectInvalid([&] { server.restoreFrom(data); }, "epoch size mismatch");
  }
  {
    ServeOptions options = makeOptions("tree-counters", 1, false);
    options.replaceDrift = 3.0;
    EpochServer server(rooted, kObjects, options);
    expectInvalid([&] { server.restoreFrom(data); },
                  "drift threshold mismatch");
  }
  std::filesystem::remove_all(dir);
}

// A bare resume — every serving knob taken from the snapshot, as
// `hbn_serve --restore D` does without --policy/--epoch/--drift — ends
// bit-identical to the uninterrupted run even when the run used a
// non-default epoch size and drift factor.
TEST(Checkpoint, BareRestoreResumesWithTheRecordedKnobs) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 61);
  ServeOptions original = makeOptions("adaptive", 1, true);
  original.epochSize = 2048;
  original.replaceDrift = 1.5;
  const std::string reference =
      serveUninterrupted(rooted, events, original);

  const std::filesystem::path dir = freshDir("bare");
  {
    ServeOptions doomed = original;
    doomed.checkpointDir = dir.string();
    doomed.checkpointEvery = 2;
    doomed.faults = util::makeFaultInjector("shard-throw@epoch6");
    EpochServer server(rooted, kObjects, doomed);
    VectorStream stream({events.begin(), events.end()});
    EXPECT_THROW((void)server.serve(stream), Error);
  }
  const CheckpointData data =
      readCheckpointFile(latestCheckpointPath(dir.string()));
  ASSERT_EQ(data.epochs, 6u);
  ServeOptions resumed;  // defaults, then what the snapshot recorded
  resumed.policy = data.policySpec;
  resumed.epochSize = data.epochSize;
  resumed.replaceDrift = data.replaceDrift;
  EpochServer server(rooted, kObjects, resumed);
  server.restoreFrom(data);
  VectorStream stream({events.begin(), events.end()});
  skipRequests(stream, data.servedTotal);
  const ServeReport report = server.serve(stream);
  EXPECT_EQ(stateDigest(server, report), reference);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------------
// The v2 reader under fuzz: every truncation, seeded byte flips with the
// trailer recomputed (so the body parser, not the checksum, must catch
// them), random garbage and a v1 text file. Each input must either be
// rejected with std::invalid_argument or restore a server cleanly, and
// the reader's largest allocation must stay within the input's size.
// ---------------------------------------------------------------------------

std::string fileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream slurp;
  slurp << in.rdbuf();
  return slurp.str();
}

/// `bytes` with its trailing FNV-1a checksum recomputed over the body.
std::string rechecksum(const std::string& bytes) {
  const std::string_view body(bytes.data(), bytes.size() - 8);
  util::ByteWriter out;
  out.raw(body);
  out.u64(util::fnv1a(body));
  return out.take();
}

/// Error messages are short strings whatever the input; the probe allows
/// them on top of the input's size.
constexpr std::size_t kMessageSlack = 256;

/// Reads `input` and restores it into a fresh server built for `spec`.
/// Returns true when both accept it, false when either rejects it with
/// std::invalid_argument; anything else fails the test.
bool readAndRestore(const net::RootedTree& rooted, const std::string& spec,
                    const std::string& input) {
  std::istringstream in(input);
  CheckpointData data;
  bool read = true;
  gLargestAlloc.store(0);
  gProbeArmed.store(true);
  try {
    data = readCheckpoint(in);
  } catch (const std::invalid_argument&) {
    read = false;
  }
  gProbeArmed.store(false);
  EXPECT_LE(gLargestAlloc.load(), std::max(input.size(), kMessageSlack))
      << "reader allocation beyond the input's size";
  if (!read) return false;
  EpochServer server(rooted, kObjects, makeOptions(spec, 1, false));
  try {
    server.restoreFrom(data);
  } catch (const std::invalid_argument&) {
    return false;
  }
  return true;
}

TEST(Checkpoint, ReaderFuzzRejectsOrRestoresCleanly) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 59);
  // adaptive nests tree-counters and a fixed-config member, so flips
  // land in every kind of policy state.
  const std::string spec = "adaptive";
  std::filesystem::path dir;
  (void)sampleCheckpoint(rooted, events, spec, dir);
  const std::string bytes =
      fileBytes(latestCheckpointPath(dir.string()));
  std::filesystem::remove_all(dir);
  ASSERT_TRUE(readAndRestore(rooted, spec, bytes));

  for (std::size_t length = 0; length < bytes.size(); ++length) {
    ASSERT_FALSE(readAndRestore(rooted, spec, bytes.substr(0, length)))
        << "truncation to " << length << " bytes accepted";
  }

  const std::size_t bodyStart = bytes.find('\n') + 1;
  const std::size_t bodyEnd = bytes.size() - 8;
  std::mt19937_64 rng(20);
  int accepted = 0;
  int rejected = 0;
  for (int flip = 0; flip < 2048; ++flip) {
    std::string mutated = bytes;
    const std::size_t at = bodyStart + rng() % (bodyEnd - bodyStart);
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
    if (readAndRestore(rooted, spec, rechecksum(mutated))) {
      ++accepted;
    } else {
      ++rejected;
    }
  }
  // Flips in counts and counters still parse; flips in tags, dims,
  // lengths, ids and ranges must not.
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);

  for (int trial = 0; trial < 256; ++trial) {
    std::string garbage(rng() % 4096, '\0');
    for (char& c : garbage) c = static_cast<char>(rng());
    EXPECT_FALSE(readAndRestore(rooted, spec, garbage));
    // The same garbage behind a valid version line and checksum reaches
    // the body parser.
    const std::string framed = rechecksum("hbn-checkpoint v2\n" + garbage +
                                          std::string(8, '\0'));
    EXPECT_FALSE(readAndRestore(rooted, spec, framed));
  }
}

TEST(Checkpoint, TextV1FilesAreAnUnsupportedVersion) {
  std::istringstream in(
      "hbn-checkpoint v1\npolicy tree-counters\ndims 64 16 15\n"
      "checksum 0\n");
  expectInvalid([&] { (void)readCheckpoint(in); },
                "unsupported version 'v1'");
}

// ---------------------------------------------------------------------------
// Hand-crafted policy states, each breaking one invariant restore
// checks. They go through writeCheckpoint, so the checksum is valid and
// the policy's own validation must reject them.
// ---------------------------------------------------------------------------

void expectPolicyStateRejected(const net::RootedTree& rooted,
                               CheckpointData data, std::string state,
                               const std::string& why) {
  data.policyState = std::move(state);
  std::stringstream file;
  writeCheckpoint(data, file);
  const CheckpointData read = readCheckpoint(file);
  EpochServer server(rooted, kObjects,
                     makeOptions(data.policySpec, 1, false));
  expectInvalid([&] { server.restoreFrom(read); }, why);
}

TEST(Checkpoint, HandCraftedPolicyStatesAreRejected) {
  const net::Tree tree = net::makeClusterNetwork(3, 4);
  const net::RootedTree rooted(tree, tree.defaultRoot());
  const auto events = makeEvents(tree, 67);
  const auto p = static_cast<std::uint64_t>(tree.processors().front());
  const auto q = static_cast<std::uint64_t>(tree.processors().back());

  // tree-counters: object 0's state comes from `object0`, every other
  // object holds one copy on p and no counters.
  const auto treeCounters = [&](auto&& object0) {
    util::ByteWriter w;
    w.block("tree-counters");
    w.varint(0);  // handoffs
    w.varint(kObjects);
    object0(w);
    for (int x = 1; x < kObjects; ++x) {
      for (const std::uint64_t v : {p, std::uint64_t{1}, p, std::uint64_t{0}}) {
        w.varint(v);
      }
    }
    return w.take();
  };
  const auto varints = [](std::initializer_list<std::uint64_t> values) {
    return [values](util::ByteWriter& w) {
      for (const std::uint64_t v : values) w.varint(v);
    };
  };
  std::filesystem::path dir;
  const CheckpointData counters =
      sampleCheckpoint(rooted, events, "tree-counters", dir);
  std::filesystem::remove_all(dir);
  // anchor, copy count, locations, counter count, (edge, value) pairs
  expectPolicyStateRejected(rooted, counters,
                            treeCounters(varints({p, 2, p, p, 0})),
                            "duplicate copy location");
  expectPolicyStateRejected(rooted, counters,
                            treeCounters(varints({q, 1, p, 0})),
                            "anchor holds no copy");
  const auto edges = static_cast<std::uint64_t>(tree.edgeCount());
  expectPolicyStateRejected(rooted, counters,
                            treeCounters(varints({p, 1, p, 1, edges, 1})),
                            "bad counter entry");

  // adaptive over two members: object 0 routed to member 2 of 2.
  const std::string spec = "adaptive:members=tree-counters+owner-only,window=3";
  const CheckpointData adaptive = sampleCheckpoint(rooted, events, spec, dir);
  std::filesystem::remove_all(dir);
  util::ByteWriter w;
  w.block("adaptive");
  // members, window, passes begun, handoffs
  for (const std::uint64_t v : {2, 3, 0, 0}) w.varint(v);
  dynamic::OnlinePolicyRegistry::global()
      .create("tree-counters")
      ->build(rooted, kObjects, tree.processors().front())
      ->serializeState(w);
  w.block("fixed");
  w.block("owner-only");
  for (int x = 0; x < kObjects; ++x) {
    w.u8(x == 0 ? 2 : 0);  // active
    for (int field = 0; field < 4; ++field) w.u8(0);  // desired..pending
    for (int field = 0; field < 4; ++field) w.varint(0);
  }
  for (int cost = 0; cost < 4 * 2 * kObjects; ++cost) w.varint(0);
  expectPolicyStateRejected(rooted, adaptive, w.take(),
                            "route fields out of range");
}

// skipRequests must refuse to resume past the end of a shorter stream —
// the checkpoint and the stream plainly disagree.
TEST(Checkpoint, SkipPastEndOfStreamThrows) {
  std::vector<workload::RequestEvent> few(10,
                                          workload::RequestEvent{0, 0, false});
  VectorStream stream(std::move(few));
  EXPECT_THROW(skipRequests(stream, 11), std::runtime_error);
}

}  // namespace
}  // namespace hbn::serve
