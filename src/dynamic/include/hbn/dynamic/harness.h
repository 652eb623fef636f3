// Request-sequence tools for the online policies.
//
// Builds online request sequences (randomised interleavings of a static
// workload, or adversarial read/write alternations) and buckets them by
// object. A competitive run serves such a sequence through
// serve::EpochServer with the drift handoff off and compares the
// realised congestion against the offline benchmark: the analytic
// congestion lower bound of the aggregated frequencies (a lower bound
// even on the optimal *static* placement, hence on any offline strategy
// that must keep at least one copy).
#pragma once

#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "hbn/dynamic/online_policy.h"
#include "hbn/util/rng.h"
#include "hbn/workload/workload.h"

namespace hbn::dynamic {

/// The true online-vs-offline congestion ratio, with the zero lower
/// bound guarded explicitly (dividing by max(LB, 1) would silently
/// deflate ratios whenever the bound is sub-1): 1 when both are zero
/// (trivially optimal), +inf when only the bound is. The serving
/// engine's epoch log and reports use it.
[[nodiscard]] inline double competitiveRatio(double onlineCongestion,
                                             double offlineLowerBound) {
  if (offlineLowerBound > 0.0) return onlineCongestion / offlineLowerBound;
  return onlineCongestion == 0.0 ? 1.0
                                 : std::numeric_limits<double>::infinity();
}

/// Stable object-bucketing (CSR): scatters `requests` into `bucketed`
/// grouped by object id with per-object arrival order preserved, and
/// fills `offsets` so object x's run is
/// bucketed[offsets[x], offsets[x+1]). `offsets` must have
/// numObjects + 1 entries and `bucketed` requests.size() entries; every
/// request's object id must lie in [0, numObjects), and, when `numNodes`
/// is given, its origin in [0, *numNodes) — else std::out_of_range
/// ("request object out of range" / "request origin out of range"),
/// checked in the same pass that counts the runs. Allocation-free —
/// shared by the epoch ingest's validate + bucket step and the
/// load-engine benchmark.
void bucketRequestsByObject(std::span<const Request> requests,
                            int numObjects,
                            std::span<std::size_t> offsets,
                            std::span<Request> bucketed,
                            std::optional<int> numNodes = std::nullopt);

/// Flattens a static workload into a uniformly shuffled request sequence.
[[nodiscard]] std::vector<Request> sequenceFromWorkload(
    const workload::Workload& load, util::Rng& rng);

/// Adversarial sequence: alternating read bursts from one subtree and
/// writes from another, designed to force replicate/invalidate churn.
[[nodiscard]] std::vector<Request> makePingPongSequence(
    const net::Tree& tree, int numObjects, int roundsPerObject,
    Count readsPerBurst, util::Rng& rng);

}  // namespace hbn::dynamic
