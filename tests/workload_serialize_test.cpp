// Round-trip and error-path tests for workload serialisation.
#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/workload/generators.h"
#include "hbn/util/bytes.h"
#include "hbn/util/rng.h"
#include "hbn/workload/serialize.h"

namespace hbn::workload {
namespace {

TEST(WorkloadSerialize, RoundTripSmall) {
  Workload w(2, 5);
  w.addReads(0, 1, 3);
  w.addWrites(1, 4, 7);
  const Workload back = parseText(toText(w));
  EXPECT_EQ(back.numObjects(), 2);
  EXPECT_EQ(back.numNodes(), 5);
  EXPECT_EQ(back.reads(0, 1), 3);
  EXPECT_EQ(back.writes(1, 4), 7);
  EXPECT_EQ(toText(back), toText(w));
}

TEST(WorkloadSerialize, RoundTripGeneratedProfiles) {
  util::Rng rng(55);
  const net::Tree t = net::makeKaryTree(3, 2);
  for (int p = 0; p < 6; ++p) {
    GenParams params;
    params.numObjects = 6;
    params.requestsPerProcessor = 20;
    const Workload w =
        generate(static_cast<Profile>(p), t, params, rng);
    const Workload back = parseText(toText(w));
    EXPECT_EQ(toText(back), toText(w)) << profileName(static_cast<Profile>(p));
  }
}

TEST(WorkloadSerialize, EmptyWorkloadRoundTrips) {
  Workload w(3, 4);
  const Workload back = parseText(toText(w));
  EXPECT_EQ(back.grandTotal(), 0);
  EXPECT_EQ(back.numObjects(), 3);
}

TEST(WorkloadSerialize, MissingHeaderRejected) {
  EXPECT_THROW((void)parseText("dims 1 1\n"), std::invalid_argument);
}

TEST(WorkloadSerialize, MissingDimsRejected) {
  EXPECT_THROW((void)parseText("hbn-workload v1\n"), std::invalid_argument);
}

TEST(WorkloadSerialize, UnknownKeywordRejected) {
  const char* text =
      "hbn-workload v1\n"
      "dims 1 2\n"
      "modify 0 0 1\n";
  EXPECT_THROW((void)parseText(text), std::invalid_argument);
}

TEST(WorkloadSerialize, OutOfRangeEntryRejected) {
  const char* text =
      "hbn-workload v1\n"
      "dims 1 2\n"
      "read 0 9 1\n";
  EXPECT_THROW((void)parseText(text), std::out_of_range);
}

TEST(WorkloadSerialize, NegativeCountRejected) {
  const char* text =
      "hbn-workload v1\n"
      "dims 1 2\n"
      "read 0 0 -5\n";
  EXPECT_THROW((void)parseText(text), std::invalid_argument);
}

TEST(WorkloadSerialize, DuplicateEntriesAccumulate) {
  const char* text =
      "hbn-workload v1\n"
      "dims 1 2\n"
      "read 0 0 2\n"
      "read 0 0 3\n";
  const Workload w = parseText(text);
  EXPECT_EQ(w.reads(0, 0), 5);
}

TEST(TraceSerialize, RoundTripPreservesOrder) {
  std::vector<RequestEvent> events = {
      {0, 3, false}, {2, 1, true}, {0, 3, false}, {1, 4, true}};
  std::ostringstream oss;
  writeTraceHeader(oss, 3, 5);
  for (const RequestEvent& ev : events) writeTraceEvent(oss, ev);

  std::istringstream in(oss.str());
  TraceReader reader(in);
  EXPECT_EQ(reader.numObjects(), 3);
  EXPECT_EQ(reader.numNodes(), 5);
  RequestEvent ev;
  for (const RequestEvent& expected : events) {
    ASSERT_TRUE(reader.next(ev));
    EXPECT_EQ(ev.object, expected.object);
    EXPECT_EQ(ev.origin, expected.origin);
    EXPECT_EQ(ev.isWrite, expected.isWrite);
  }
  EXPECT_FALSE(reader.next(ev));
  EXPECT_FALSE(reader.next(ev));  // stays exhausted
}

TEST(TraceSerialize, MissingHeaderRejected) {
  std::istringstream in("r 0 0\n");
  EXPECT_THROW(TraceReader reader(in), std::invalid_argument);
}

TEST(TraceSerialize, MalformedLinesRejected) {
  const auto readAll = [](const std::string& body) {
    std::istringstream in("hbn-trace v1\ndims 2 4\n" + body);
    TraceReader reader(in);
    RequestEvent ev;
    while (reader.next(ev)) {
    }
  };
  EXPECT_THROW(readAll("x 0 0\n"), std::invalid_argument);   // bad keyword
  EXPECT_THROW(readAll("r 0\n"), std::invalid_argument);     // missing field
  EXPECT_THROW(readAll("r 0 0 9\n"), std::invalid_argument); // trailing
  EXPECT_THROW(readAll("r 0 0x\n"), std::invalid_argument);  // partial parse
  EXPECT_THROW(readAll("r 2 0\n"), std::invalid_argument);   // object range
  EXPECT_THROW(readAll("w 0 4\n"), std::invalid_argument);   // node range
  EXPECT_THROW(readAll("r -1 0\n"), std::invalid_argument);  // negative
}

TEST(TraceSerialize, BlankLinesAreSkipped) {
  std::istringstream in("hbn-trace v1\ndims 1 2\n\nr 0 1\n\n");
  TraceReader reader(in);
  RequestEvent ev;
  ASSERT_TRUE(reader.next(ev));
  EXPECT_EQ(ev.origin, 1);
  EXPECT_FALSE(reader.next(ev));
}

// ---------------------------------------------------------------------------
// Binary rows (the checkpoint's rows block).
// ---------------------------------------------------------------------------

Workload decodeAll(const std::string& bytes, int objects, int nodes) {
  util::ByteReader in(bytes);
  Workload load = decodeRows(in, objects, nodes);
  in.finish();
  return load;
}

TEST(WorkloadRows, RoundTripGeneratedProfiles) {
  util::Rng rng(57);
  const net::Tree t = net::makeKaryTree(3, 2);
  for (int p = 0; p < 6; ++p) {
    GenParams params;
    params.numObjects = 6;
    params.requestsPerProcessor = 20;
    Workload w = generate(static_cast<Profile>(p), t, params, rng);
    w.addReads(0, t.nodeCount() - 1, 1'000'000'000'000);  // a long varint
    util::ByteWriter out;
    encodeRows(w, out);
    const Workload back = decodeAll(out.take(), w.numObjects(), w.numNodes());
    EXPECT_EQ(toText(back), toText(w)) << profileName(static_cast<Profile>(p));
  }
}

TEST(WorkloadRows, EmptyRowsAreOneBytePerObject) {
  util::ByteWriter out;
  encodeRows(Workload(5, 9), out);
  EXPECT_EQ(out.view().size(), 5u);
  EXPECT_EQ(decodeAll(out.take(), 5, 9).grandTotal(), 0);
}

TEST(WorkloadRows, DecoderRangeChecksEveryField) {
  const auto rows = [](std::initializer_list<std::uint64_t> varints) {
    util::ByteWriter out;
    for (const std::uint64_t v : varints) out.varint(v);
    return out.take();
  };
  const auto reject = [](const std::string& bytes, const char* why) {
    try {
      (void)decodeAll(bytes, 1, 4);
      ADD_FAILURE() << "accepted rows that should fail with '" << why << "'";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  EXPECT_EQ(decodeAll(rows({2, 1, 3, 0, 1, 0, 2}), 1, 4).writes(0, 3), 2);
  reject(rows({5}), "entry count out of range");
  reject(rows({1, 4, 1, 0}), "node out of range");
  reject(rows({2, 3, 1, 0, 0, 1, 0}), "node out of range");  // past the end
  reject(rows({1, 0, 0, 0}), "empty entry");
  reject(rows({2, 0, std::uint64_t{1} << 62, 0, 0, std::uint64_t{1} << 62,
               0}),
         "overflows");
  reject(rows({2, 0, 1, 0}), "truncated");
}

}  // namespace
}  // namespace hbn::workload
