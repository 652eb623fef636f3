// The shipped hbn_serve binary end to end: single-process, one loopback
// worker and four exec'd socket workers serve the same stream, and their
// --json summaries must agree on every deterministic field.
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "hbn/util/json.h"

namespace hbn {
namespace {

/// Runs hbn_serve with `flags`; returns its summary record, key -> text.
std::map<std::string, std::string> serveSummary(const std::string& flags) {
  static int runs = 0;
  const std::string json =
      testing::TempDir() + "serve_cli_" + std::to_string(runs++) + ".json";
  const std::string command =
      std::string(HBN_SERVE_BINARY) +
      " --requests 200000 --epoch 16384 --objects 256 " + flags +
      " --json " + json + " > /dev/null";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
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

TEST(ServeCli, ShardedRunsMatchTheSingleProcessSummary) {
  std::map<std::string, std::string> single = serveSummary("");
  for (const char* flags : {"--workers=1 --transport=loopback",
                            "--workers=4 --transport=socket"}) {
    SCOPED_TRACE(flags);
    std::map<std::string, std::string> sharded = serveSummary(flags);
    for (const char* key : {"congestion", "lower_bound", "ratio",
                            "replacements", "replications", "invalidations"}) {
      EXPECT_NE(single[key], "") << key;
      EXPECT_EQ(sharded[key], single[key]) << key << " diverged";
    }
    EXPECT_GT(std::atof(sharded["cross_shard_bytes"].c_str()), 0.0);
  }
}

}  // namespace
}  // namespace hbn
