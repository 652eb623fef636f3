// gtest entry point for test binaries that spawn exec-cluster workers.
// shard::makeExecCluster re-executes the running binary with
// --shard-worker-fd=K, so a worker invocation must run the worker
// protocol and exit before gtest parses argv.
#include <gtest/gtest.h>

#include "hbn/shard/process.h"

int main(int argc, char** argv) {
  if (const int code = hbn::shard::maybeRunWorkerMain(argc, argv);
      code >= 0) {
    return code;
  }
  testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
