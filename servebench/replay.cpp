// The traced run's single-thread stage replay (see bench.h).
#include <algorithm>
#include <span>
#include <stdexcept>

#include "bench.h"
#include "hbn/core/flat_load.h"
#include "hbn/core/lower_bound.h"
#include "hbn/dynamic/harness.h"
#include "hbn/dynamic/online_policy.h"
#include "hbn/serve/drift.h"
#include "hbn/serve/epoch_server.h"
#include "hbn/shard/wire.h"

namespace servebench {
namespace {

using hbn::workload::ObjectId;
using hbn::workload::RequestEvent;

double nanos(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

void mergeInto(hbn::core::LoadMap& into, const hbn::core::LoadMap& from) {
  const auto loads = from.edgeLoads();
  for (std::size_t e = 0; e < loads.size(); ++e) {
    if (loads[e] != 0) {
      into.addEdgeLoad(static_cast<hbn::net::EdgeId>(e), loads[e]);
    }
  }
}

}  // namespace

ReplayResult replay(const WorkloadSpec& spec,
                    const hbn::net::RootedTree& rooted, std::uint64_t seed,
                    int stripes, SpanRecorder& spans) {
  namespace core = hbn::core;
  namespace dynamic = hbn::dynamic;
  const hbn::net::Tree& tree = rooted.tree();
  const int numObjects = spec.objects;
  const int edgeCount = tree.edgeCount();
  constexpr int kTrack = SpanRecorder::kReplay;

  auto policy = dynamic::OnlinePolicyRegistry::global()
                    .create(spec.policy)
                    ->build(rooted, numObjects, tree.processors().front());
  hbn::workload::Workload aggregated(numObjects, tree.nodeCount());
  // The handoff pass reads the live matrix without a copy, as in
  // EpochServer (rows are stable until the object is next touched).
  const std::shared_ptr<const hbn::workload::Workload> shared(
      std::shared_ptr<const hbn::workload::Workload>(), &aggregated);
  core::IncrementalLowerBound lowerBound(rooted);
  lowerBound.rebuild(aggregated);
  core::LoadMap loads(edgeCount);
  core::LoadMap serveLoads(edgeCount);
  core::LoadMap epochLoads(edgeCount);
  core::LoadMap migration(edgeCount);
  dynamic::ServeScratch scratch;
  core::FlatLoadAccumulator acc(policy->flatView());
  hbn::serve::DriftTrigger drift;
  drift.replaceDrift = hbn::serve::ServeOptions{}.replaceDrift;

  const auto stream = makeStream(spec, tree, seed);
  std::vector<RequestEvent> raw(spec.epochSize);
  std::vector<RequestEvent> bucketed(spec.epochSize);
  std::vector<std::size_t> offsets(static_cast<std::size_t>(numObjects) + 1);
  std::vector<int> stripeOf(static_cast<std::size_t>(numObjects));
  for (int t = 0; t < stripes; ++t) {
    const auto begin = static_cast<long>(numObjects) * t / stripes;
    const auto end = static_cast<long>(numObjects) * (t + 1) / stripes;
    for (long x = begin; x < end; ++x) stripeOf[static_cast<std::size_t>(x)] = t;
  }
  std::vector<std::uint64_t> stripeRequests(static_cast<std::size_t>(stripes));

  ReplayResult result;
  std::uint64_t writes = 0;
  double touchedShareSum = 0.0;
  std::uint64_t epochs = 0;

  for (;;) {
    const auto epochStart = Clock::now();
    std::size_t n = 0;
    while (n < spec.epochSize) {
      const std::size_t got = stream->fill(
          std::span<RequestEvent>(raw.data() + n, spec.epochSize - n));
      if (got == 0) break;
      n += got;
    }
    if (n == 0) break;
    const std::int64_t epochSpan =
        spans.add("epoch", epochStart, epochStart, -1, kTrack);
    const auto generated = Clock::now();
    spans.add("generate", epochStart, generated, epochSpan, kTrack);
    const std::span<const RequestEvent> events(raw.data(), n);

    // Bucket: the ingest's CSR scatter by object.
    dynamic::bucketRequestsByObject(events, numObjects, offsets,
                                    std::span<RequestEvent>(bucketed.data(), n));
    const auto bucketedAt = Clock::now();
    spans.add("bucket", generated, bucketedAt, epochSpan, kTrack);
    result.bucketNs += nanos(generated, bucketedAt);

    // Serve: one serveShard call per touched object.
    epochLoads.clear();
    std::uint64_t touched = 0;
    for (ObjectId x = 0; x < numObjects; ++x) {
      const std::size_t begin = offsets[static_cast<std::size_t>(x)];
      const std::size_t end = offsets[static_cast<std::size_t>(x) + 1];
      if (begin == end) continue;
      ++touched;
      stripeRequests[static_cast<std::size_t>(
          stripeOf[static_cast<std::size_t>(x)])] += end - begin;
      const dynamic::ShardStats stats = policy->serveShard(
          x, std::span<const RequestEvent>(bucketed.data() + begin, end - begin),
          epochLoads, scratch, &acc);
      result.digest.replications += stats.replications;
      result.digest.invalidations += stats.invalidations;
    }
    const auto servedAt = Clock::now();
    spans.add("serve_shard", bucketedAt, servedAt, epochSpan, kTrack, touched);
    result.serveShardNs += nanos(bucketedAt, servedAt);

    mergeInto(loads, epochLoads);
    mergeInto(serveLoads, epochLoads);
    const auto mergedAt = Clock::now();
    spans.add("merge", servedAt, mergedAt, epochSpan, kTrack);

    // Aggregate after serving, refreshing the bound for touched objects.
    for (ObjectId x = 0; x < numObjects; ++x) {
      if (offsets[static_cast<std::size_t>(x)] !=
          offsets[static_cast<std::size_t>(x) + 1]) {
        lowerBound.remove(x, aggregated);
      }
    }
    for (const RequestEvent& ev : events) {
      if (ev.isWrite) {
        aggregated.addWrites(ev.object, ev.origin, 1);
        ++writes;
      } else {
        aggregated.addReads(ev.object, ev.origin, 1);
      }
    }
    for (ObjectId x = 0; x < numObjects; ++x) {
      if (offsets[static_cast<std::size_t>(x)] !=
          offsets[static_cast<std::size_t>(x) + 1]) {
        lowerBound.add(x, aggregated);
      }
    }
    const auto aggregatedAt = Clock::now();
    spans.add("aggregate_lb", mergedAt, aggregatedAt, epochSpan, kTrack);
    result.aggregateLbNs += nanos(mergedAt, aggregatedAt);

    // The §4 trigger, with EpochServer's short-circuit order.
    const double bound = lowerBound.congestion();
    const double serveCongestion = serveLoads.congestion(tree);
    const bool replace =
        policy->migratable() &&
        (drift.fired(serveCongestion, bound) || policy->wantsHandoff());
    auto stageEnd = Clock::now();
    spans.add("drift_check", aggregatedAt, stageEnd, epochSpan, kTrack);
    if (replace) {
      const auto beginAt = stageEnd;
      std::unique_ptr<dynamic::HandoffPass> pass =
          policy->beginHandoff(shared, 1);
      const auto begunAt = Clock::now();
      spans.add("handoff_begin", beginAt, begunAt, epochSpan, kTrack);
      result.handoffBeginMs.push_back(nanos(beginAt, begunAt) / 1e6);
      migration.clear();
      for (ObjectId x = 0; x < numObjects; ++x) {
        const std::vector<hbn::net::NodeId> target = pass->target(x, 0);
        dynamic::applyHandoffTarget(*policy, x, target, acc, migration);
      }
      mergeInto(loads, migration);
      stageEnd = Clock::now();
      spans.add("migrate", begunAt, stageEnd, epochSpan, kTrack,
                static_cast<std::uint64_t>(numObjects));
      result.migrateNs += nanos(begunAt, stageEnd);
      result.migratedObjects += static_cast<std::uint64_t>(numObjects);
      drift.reset(serveCongestion, bound);
    }

    // Wire: the coordinator's per-epoch broadcast payload, both ways.
    hbn::shard::EpochMsg msg;
    msg.epoch = epochs;
    msg.events.assign(events.begin(), events.end());
    const auto encodeAt = Clock::now();
    const std::string payload = msg.encode();
    const auto encodedAt = Clock::now();
    const hbn::shard::EpochMsg decoded = hbn::shard::EpochMsg::decode(payload);
    const auto decodedAt = Clock::now();
    if (decoded.events.size() != n) {
      throw std::runtime_error("replay: EpochMsg round trip lost events");
    }
    spans.add("encode", encodeAt, encodedAt, epochSpan, kTrack);
    spans.add("decode", encodedAt, decodedAt, epochSpan, kTrack);
    result.encodeNs += nanos(encodeAt, encodedAt);
    result.decodeNs += nanos(encodedAt, decodedAt);
    spans.setEnd(epochSpan, decodedAt);

    touchedShareSum +=
        static_cast<double>(touched) / static_cast<double>(numObjects);
    result.requests += n;
    ++epochs;
  }

  result.digest.loads = loadVector(loads);
  result.digest.congestion = loads.congestion(tree);
  if (epochs > 0) {
    touchedShareSum /= static_cast<double>(epochs);
  }
  result.touchedShare = touchedShareSum;
  if (result.requests > 0) {
    result.writeShare = static_cast<double>(writes) /
                        static_cast<double>(result.requests);
    const double mean = static_cast<double>(result.requests) / stripes;
    result.stripeImbalance =
        static_cast<double>(*std::max_element(stripeRequests.begin(),
                                              stripeRequests.end())) /
        mean;
  }
  return result;
}

}  // namespace servebench
