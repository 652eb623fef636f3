// The epoch ingest ring, driven directly: epochs are handed out in
// order with the same contents whoever fills them (the ingest thread,
// the consumer inline, or the consumer after the stall watchdog), a
// stream failure surfaces after every earlier epoch as
// serve::Error{Ingest, epoch}, and teardown interrupts an injected stall.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "hbn/net/generators.h"
#include "hbn/serve/error.h"
#include "hbn/serve/pipeline.h"
#include "hbn/serve/request_stream.h"
#include "hbn/util/fault.h"

namespace hbn::serve {
namespace {

constexpr int kObjects = 16;
constexpr std::size_t kEpochSize = 64;

/// Stream over a fixed vector that sleeps `sleepMs` on every
/// `sleepEvery`-th fill() call and throws once `failAt` events have been
/// produced.
class TestStream final : public RequestStream {
 public:
  explicit TestStream(const std::vector<RequestEvent>& events,
                      int sleepEvery = 0, double sleepMs = 0.0,
                      std::size_t failAt = SIZE_MAX)
      : events_(&events),
        sleepEvery_(sleepEvery),
        sleepMs_(sleepMs),
        failAt_(failAt) {}

  std::size_t fill(std::span<RequestEvent> out) override {
    if (sleepEvery_ > 0 && ++calls_ % sleepEvery_ == 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double, std::milli>(sleepMs_));
    }
    if (cursor_ >= failAt_) throw std::runtime_error("stream died");
    const std::size_t got =
        std::min({out.size(), events_->size() - cursor_, failAt_ - cursor_});
    std::copy_n(events_->begin() + static_cast<std::ptrdiff_t>(cursor_), got,
                out.begin());
    cursor_ += got;
    return got;
  }

 private:
  const std::vector<RequestEvent>* events_;
  int sleepEvery_;
  double sleepMs_;
  std::size_t failAt_;
  std::size_t cursor_ = 0;
  int calls_ = 0;
};

/// A handed-out batch, copied before its slot is released.
struct Handed {
  std::uint64_t epoch = 0;
  bool degraded = false;
  std::vector<RequestEvent> raw;
  std::vector<RequestEvent> bucketed;
  std::vector<std::size_t> offsets;
};

bool sameEvents(const std::vector<RequestEvent>& a,
                const std::vector<RequestEvent>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].object != b[i].object || a[i].origin != b[i].origin ||
        a[i].isWrite != b[i].isWrite) {
      return false;
    }
  }
  return true;
}

bool sameContents(const Handed& a, const Handed& b) {
  return a.epoch == b.epoch && sameEvents(a.raw, b.raw) &&
         sameEvents(a.bucketed, b.bucketed) && a.offsets == b.offsets;
}

/// Acquires until end of stream (or the first error, which propagates),
/// copying and releasing every batch.
std::vector<Handed> drain(EpochIngest& ingest, double stallTimeoutMs,
                          std::vector<Handed>* partial = nullptr) {
  std::vector<Handed> local;
  std::vector<Handed>& out = partial != nullptr ? *partial : local;
  while (EpochBatch* batch = ingest.acquire(stallTimeoutMs)) {
    Handed h;
    h.epoch = batch->epoch;
    h.degraded = batch->degraded;
    h.raw.assign(batch->raw.begin(), batch->raw.begin() + batch->n);
    h.bucketed.assign(batch->bucketed.begin(),
                      batch->bucketed.begin() + batch->n);
    h.offsets = batch->offsets;
    out.push_back(std::move(h));
    ingest.release(batch);
  }
  return out;
}

class IngestTest : public ::testing::Test {
 protected:
  std::vector<RequestEvent> makeEvents(std::size_t count) const {
    workload::StreamParams params;
    params.numObjects = kObjects;
    params.readFraction = 0.9;
    const auto stream = makeGeneratedStream("skewed", tree_, params, 5, count);
    std::vector<RequestEvent> events(count);
    EXPECT_EQ(stream->fill(events), count);
    return events;
  }

  std::vector<Handed> inlineRun(const std::vector<RequestEvent>& events,
                                std::size_t epochSize = kEpochSize,
                                std::uint64_t baseEpoch = 0) const {
    TestStream stream(events);
    EpochIngest ingest(stream, tree_, kObjects, epochSize, false, nullptr,
                       baseEpoch);
    return drain(ingest, 0.0);
  }

  const net::Tree tree_ = net::makeClusterNetwork(3, 4);
};

// The watchdog fires on almost every epoch here (0.001 ms), so the
// consumer and the ingest thread race for nearly every claim: most
// epochs fill in microseconds, and about one in six holds a 1 ms stream
// sleep that the consumer waits out. Whoever wins a claim, the consumer
// must see epochs in order with inline contents.
TEST_F(IngestTest, WatchdogRacesKeepEpochOrderAndContents) {
  constexpr std::size_t kRaceEpoch = 4096;  // 16 fill() calls of 256
  const auto events = makeEvents(kRaceEpoch * 24 + 3);
  const std::vector<Handed> reference = inlineRun(events, kRaceEpoch);
  ASSERT_EQ(reference.size(), 25u);
  std::uint64_t degraded = 0;
  // Odd runs also stall the ingest thread before every claim: for 10 to
  // 70 us, so its claims race the consumer's takeovers, and for 5 s at
  // every eighth epoch, which the watchdog always takes over.
  std::string stalls;
  for (std::size_t e = 0; e < reference.size(); ++e) {
    stalls += (e == 0 ? "" : ",") + std::string("ingest-stall@epoch") +
              std::to_string(e) + ":ms=" +
              (e % 8 == 0 ? "5000" : "0.0" + std::to_string(e % 8));
  }
  for (int run = 0; run < 200; ++run) {
    const auto faults =
        util::makeFaultInjector(run % 2 == 1 ? stalls : std::string());
    TestStream stream(events, /*sleepEvery=*/97, /*sleepMs=*/1.0);
    EpochIngest ingest(stream, tree_, kObjects, kRaceEpoch, true,
                       faults.get());
    const std::vector<Handed> handed = drain(ingest, 0.001);
    ASSERT_EQ(handed.size(), reference.size()) << "run " << run;
    for (std::size_t e = 0; e < handed.size(); ++e) {
      ASSERT_EQ(handed[e].epoch, e) << "run " << run;
      ASSERT_TRUE(sameContents(handed[e], reference[e]))
          << "run " << run << " epoch " << e;
      if (handed[e].degraded) ++degraded;
    }
  }
  // Epochs 0, 8, 16 and 24 of each of the 100 stalled runs at least.
  EXPECT_GE(degraded, 400u);
}

TEST_F(IngestTest, InlineThreadedAndDegradedHandOutIdenticalBatches) {
  const auto events = makeEvents(kEpochSize * 8 + 5);
  const std::vector<Handed> reference = inlineRun(events);
  ASSERT_EQ(reference.size(), 9u);
  for (const Handed& h : reference) EXPECT_FALSE(h.degraded);

  TestStream plainStream(events);
  EpochIngest plain(plainStream, tree_, kObjects, kEpochSize, true);
  const std::vector<Handed> threaded = drain(plain, 0.0);

  // Stalls far beyond the watchdog: epochs 2 and 5 are filled by the
  // consumer, and only those.
  const auto faults = util::makeFaultInjector(
      "ingest-stall@epoch2:ms=5000,ingest-stall@epoch5:ms=5000");
  TestStream stalledStream(events);
  EpochIngest stalled(stalledStream, tree_, kObjects, kEpochSize, true,
                      faults.get());
  const std::vector<Handed> degraded = drain(stalled, 20.0);
  EXPECT_EQ(faults->triggered(), 2u);

  ASSERT_EQ(threaded.size(), reference.size());
  ASSERT_EQ(degraded.size(), reference.size());
  for (std::size_t e = 0; e < reference.size(); ++e) {
    EXPECT_TRUE(sameContents(threaded[e], reference[e])) << e;
    EXPECT_FALSE(threaded[e].degraded) << e;
    EXPECT_TRUE(sameContents(degraded[e], reference[e])) << e;
    EXPECT_EQ(degraded[e].degraded, e == 2 || e == 5) << e;
  }
}

TEST_F(IngestTest, StreamErrorSurfacesAfterEarlierEpochsInBothModes) {
  constexpr std::uint64_t kBase = 3;
  constexpr std::size_t kFailEpoch = 4;  // relative to kBase
  const auto events = makeEvents(kEpochSize * 8);
  const std::vector<Handed> reference = inlineRun(events, kEpochSize, kBase);

  // A bad object id in the middle of epoch kFailEpoch fails validation.
  auto outOfRange = events;
  outOfRange[kEpochSize * kFailEpoch + 9].object = kObjects;

  for (const bool threaded : {false, true}) {
    for (const bool streamThrows : {true, false}) {
      SCOPED_TRACE(std::string(threaded ? "threaded" : "inline") +
                   (streamThrows ? ", stream throws" : ", bad request"));
      TestStream stream(streamThrows ? events : outOfRange, 0, 0.0,
                        streamThrows ? kEpochSize * kFailEpoch + 9
                                     : SIZE_MAX);
      EpochIngest ingest(stream, tree_, kObjects, kEpochSize, threaded,
                         nullptr, kBase);
      std::vector<Handed> handed;
      try {
        (void)drain(ingest, 0.0, &handed);
        ADD_FAILURE() << "no ingest error";
      } catch (const Error& e) {
        EXPECT_EQ(e.stage(), Stage::Ingest);
        EXPECT_EQ(e.epoch(), kBase + kFailEpoch);
      }
      ASSERT_EQ(handed.size(), kFailEpoch);
      for (std::size_t e = 0; e < kFailEpoch; ++e) {
        EXPECT_TRUE(sameContents(handed[e], reference[e])) << e;
      }
    }
  }
}

TEST_F(IngestTest, DestroyInterruptsAnInjectedStall) {
  const auto events = makeEvents(kEpochSize * 4);
  const auto faults = util::makeFaultInjector("ingest-stall@epoch0:ms=5000");
  TestStream stream(events);
  const auto start = std::chrono::steady_clock::now();
  {
    EpochIngest ingest(stream, tree_, kObjects, kEpochSize, true,
                       faults.get());
    while (faults->triggered() == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  const double seconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start)
                             .count();
  EXPECT_LT(seconds, 1.0);
}

TEST_F(IngestTest, ConsumerRejectsAnOutOfOrderEpoch) {
  EpochBatch batch;
  batch.epoch = 7;
  EXPECT_NO_THROW(checkEpochOrder(batch, 7));
  try {
    checkEpochOrder(batch, 6);
    ADD_FAILURE() << "no throw";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find('7'), std::string::npos) << what;
    EXPECT_NE(what.find('6'), std::string::npos) << what;
  }
}

}  // namespace
}  // namespace hbn::serve
