// hbn_bench — the unified experiment driver.
//
// Usage:
//   hbn_bench --list
//   hbn_bench approx-ratio runtime:reps=5
//   hbn_bench --suite=smoke --out results/
//
// Every experiment in bench/experiments/ is registered by name (spec
// syntax `name[:key=value,...]`, shared with strategy specs); each run
// prints its human-readable tables and writes a schema-versioned
// BENCH_<experiment>.json for the cross-PR perf trajectory.
#include "experiments/experiments.h"
#include "hbn/shard/process.h"

int main(int argc, char** argv) {
  // The sharded-serving experiment spawns exec-cluster workers from
  // this binary; a worker invocation short-circuits here.
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv);
      code >= 0) {
    return code;
  }
  return hbn::engine::runBenchCli(hbn::bench::experiments(), argc, argv);
}
