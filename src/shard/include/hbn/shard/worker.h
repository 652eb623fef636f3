// ShardWorker — one shard of the sharded serving engine.
//
// A worker is the wire protocol (see hbn/shard/wire.h) around one
// serve::EpochServer constructed with an ownership mask: the objects
// the Hello's Partition assigns to this shard. The epoch step itself
// is the single-process engine's, driven one frame at a time:
//
//   Hello      parse the tree, derive the Partition, build the
//              EpochServer over the owned objects.
//   Epoch      validate + bucket the batch (EpochBatch::bucket, as the
//              ingest does; failures are Stage::Ingest) and run
//              EpochServer::serveBatch. The server serves only
//              owned∩touched objects but aggregates ALL events into
//              its full frequency matrix and lower bound — the
//              invariant that keeps §4 handoff placements, which may
//              read other objects' rows (static:placement=
//              extended-nibble steers its mapping by the basic loads
//              of every object), bit-identical for any shard count.
//              Stats ships the step's serve-load delta, the counters,
//              the lower bound and this thread's CPU busy time.
//   Decide     the coordinator's global re-placement decision. On
//              replace the worker runs EpochServer::replaceNow — the
//              barrier-mode handoff over the full (identical) matrix,
//              migrating every owned object — and ships the migration
//              delta in Migrate.
//   Fin        report the shard summary (FinAck) and return.
//
// Failures ship as Error frames with their serve::Error stage intact
// before the worker exits, so the coordinator rethrows them with full
// attribution and the right process exit code.
#pragma once

#include "hbn/shard/transport.h"

namespace hbn::shard {

/// Runs the worker protocol loop over `transport` until Fin or error.
/// serve::Error (own failures and injected ones alike) is sent to the
/// coordinator as an Error frame and rethrown; transport errors
/// (coordinator death) are rethrown directly.
void runWorker(FramedTransport& transport);

/// Worker entry for a process of its own: wraps `fd` (an AF_UNIX
/// stream socket to the coordinator) and runs runWorker, mapping
/// serve::Error onto its stage exit code (10-17), std::exception onto
/// 1. Never throws.
[[nodiscard]] int runWorkerProcess(int fd) noexcept;

}  // namespace hbn::shard
