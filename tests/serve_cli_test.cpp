// The shipped hbn_serve binary end to end: single-process, one loopback
// worker and four exec'd socket workers serve the same stream, and their
// --json summaries must agree on every deterministic field and carry
// the same report keys; a run killed mid-stream and resumed with
// --restore must end with the uninterrupted run's summary state.
#include <sys/wait.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hbn/util/json.h"

namespace hbn {
namespace {

/// Runs hbn_serve with `flags`, expecting exit code `exitCode`; returns
/// its summary record, key -> text (none when the run fails).
std::map<std::string, std::string> serveSummary(const std::string& flags,
                                                int exitCode = 0) {
  static int runs = 0;
  const std::string json =
      testing::TempDir() + "serve_cli_" + std::to_string(runs++) + ".json";
  const std::string command =
      std::string(HBN_SERVE_BINARY) +
      " --requests 200000 --epoch 16384 --objects 256 " + flags +
      " --json " + json + " > /dev/null";
  const int status = std::system(command.c_str());
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == exitCode)
      << command << " -> status " << status;
  if (exitCode != 0) return {};
  std::ifstream in(json);
  std::ostringstream text;
  text << in.rdbuf();
  std::map<std::string, std::string> summary;  // the last record
  for (const util::ParsedRecord& record : util::parseRecords(text.str())) {
    summary.clear();
    for (const util::ParsedField& f : record) summary[f.key] = f.text;
  }
  EXPECT_EQ(summary["kind"], "summary") << flags;
  return summary;
}

/// The summary's keys, less the policy's own diagnostics ("policy."
/// keys), which a sharded run reports per shard instead.
std::set<std::string> reportKeys(
    const std::map<std::string, std::string>& summary) {
  std::set<std::string> keys;
  for (const auto& entry : summary) {
    if (entry.first.rfind("policy.", 0) != 0) keys.insert(entry.first);
  }
  return keys;
}

TEST(ServeCli, ShardedRunsMatchTheSingleProcessSummary) {
  std::map<std::string, std::string> single = serveSummary("");
  std::set<std::string> shardedKeys = reportKeys(single);
  shardedKeys.insert({"transport", "partition", "workers", "critical_path_ms",
                      "requests_per_sec_critical", "cross_shard_bytes",
                      "bytes_per_request"});
  ASSERT_EQ(shardedKeys.size(), reportKeys(single).size() + 7)
      << "a shard key is also a single-process key";
  for (const char* flags : {"--workers=1 --transport=loopback",
                            "--workers=4 --transport=socket"}) {
    SCOPED_TRACE(flags);
    std::map<std::string, std::string> sharded = serveSummary(flags);
    EXPECT_EQ(reportKeys(sharded), shardedKeys);
    for (const char* key : {"congestion", "lower_bound", "ratio",
                            "replacements", "replications", "invalidations"}) {
      EXPECT_NE(single[key], "") << key;
      EXPECT_EQ(sharded[key], single[key]) << key << " diverged";
    }
    EXPECT_GT(std::atof(sharded["cross_shard_bytes"].c_str()), 0.0);
  }
}

TEST(ServeCli, KillAndRestoreEndsWithTheUninterruptedSummary) {
  const std::string dir = testing::TempDir() + "serve_cli_checkpoints";
  const std::string wholeDir = dir + "_whole";
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(wholeDir);
  const std::string flags = "--stream diurnal --checkpoint-every 4 ";
  std::map<std::string, std::string> whole =
      serveSummary(flags + "--checkpoint-dir " + wholeDir);
  // Serve exits 11 on the injected throw, after the epoch-8 checkpoint.
  serveSummary(flags + "--checkpoint-dir " + dir +
                   " --inject shard-throw@epoch9",
               11);
  std::map<std::string, std::string> resumed =
      serveSummary(flags + "--checkpoint-dir " + dir + " --restore " + dir);
  for (const char* key : {"congestion", "lower_bound", "ratio",
                          "replacements", "replications", "invalidations",
                          "checkpoints", "policy"}) {
    EXPECT_NE(whole[key], "") << key;
    EXPECT_EQ(resumed[key], whole[key]) << key << " diverged";
  }
  // The cost is the resumed process's own: it wrote only the
  // checkpoints after the restored one.
  EXPECT_LT(std::stoi(resumed["checkpoint_writes"]),
            std::stoi(resumed["checkpoints"]));
  EXPECT_GT(std::stoi(resumed["checkpoint_writes"]), 0);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(wholeDir);
}

}  // namespace
}  // namespace hbn
