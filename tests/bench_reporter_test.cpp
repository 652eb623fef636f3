// Schema coverage for the unified experiment harness: the
// ExperimentRegistry mirrors the strategy registry's contract (unknown
// names/options are loud errors, aliases resolve), and every registered
// experiment run in smoke mode emits a BENCH_<name>.json that parses,
// keeps its schema fields and the rows its consumers read, and reports
// its pass verdict — the acceptance gate for `hbn_bench --suite=smoke`.
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "experiments/experiments.h"
#include "hbn/util/json.h"

namespace hbn {
namespace {

using engine::BenchReporter;
using engine::ExperimentContext;
using util::ParsedField;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream oss;
  oss << in.rdbuf();
  return oss.str();
}

const ParsedField* find(const util::ParsedRecord& record,
                        std::string_view key) {
  for (const ParsedField& field : record) {
    if (field.key == key) return &field;
  }
  return nullptr;
}

TEST(ExperimentRegistry, ListsAtLeastTenExperiments) {
  const auto names = bench::experiments().names();
  EXPECT_GE(names.size(), 10u);
}

TEST(ExperimentRegistry, AliasesResolveToCanonicalExperiments) {
  const auto e1 = bench::experiments().create("e1");
  EXPECT_EQ(e1->name(), "approx-ratio");
  const auto e10 = bench::experiments().create("e10");
  EXPECT_EQ(e10->name(), "ablation");
}

TEST(ExperimentRegistry, UnknownNameAndUnknownOptionAreLoud) {
  EXPECT_THROW((void)bench::experiments().create("no-such-experiment"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::experiments().create("runtime:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)bench::experiments().create("runtime:reps=abc"),
               std::invalid_argument);
}

using Rows = std::vector<const util::ParsedRecord*>;

/// The rows among `rows` whose `key` field reads `value`.
Rows where(const Rows& rows, std::string_view key, std::string_view value) {
  Rows matching;
  for (const util::ParsedRecord* row : rows) {
    const ParsedField* field = find(*row, key);
    if (field != nullptr && field->text == value) matching.push_back(row);
  }
  return matching;
}

/// The distinct values of `key` over `rows`, as text.
std::set<std::string> valuesOf(const Rows& rows, std::string_view key) {
  std::set<std::string> values;
  for (const util::ParsedRecord* row : rows) {
    if (const ParsedField* field = find(*row, key)) values.insert(field->text);
  }
  return values;
}

void expectFields(const Rows& rows, std::initializer_list<const char*> keys) {
  for (const util::ParsedRecord* row : rows) {
    for (const char* key : keys) {
      EXPECT_NE(find(*row, key), nullptr) << "row missing field " << key;
    }
  }
}

/// What an experiment's smoke records must show beyond its verdict: the
/// row fields and coverage BENCH consumers read, and the checks that must
/// be present (a check that is never declared cannot fail the verdict).
const std::map<std::string, void (*)(const Rows&, const Rows&)> kContracts = {
    {"serving-throughput",
     [](const Rows& rows, const Rows& checks) {
       expectFields(rows, {"stream", "requests", "congestion", "lower_bound",
                           "ratio", "replacements", "pipeline",
                           "epoch_ms_p50", "epoch_ms_p99", "epoch_ms_p999",
                           "latency_ms_p50", "latency_ms_p99",
                           "latency_ms_p999"});
       EXPECT_TRUE(valuesOf(rows, "variant").contains("barrier") &&
                   valuesOf(rows, "variant").contains("pipelined"));
       EXPECT_FALSE(checks.empty());
     }},
    {"policy-comparison",
     [](const Rows& rows, const Rows& checks) {
       expectFields(rows, {"policy", "stream", "congestion", "ratio"});
       EXPECT_EQ(checks.size(), 6u);
       EXPECT_GE(valuesOf(rows, "policy").size(), 5u);
       for (const std::string& policy : valuesOf(rows, "policy")) {
         EXPECT_EQ(valuesOf(where(rows, "policy", policy), "stream"),
                   (std::set<std::string>{"skewed", "bursty", "diurnal",
                                          "skewed-churn", "ping-pong",
                                          "phase-shift"}))
             << policy << " misses a stream";
       }
       const Rows adaptive = where(rows, "policy", "adaptive");
       EXPECT_EQ(valuesOf(adaptive, "stream"), valuesOf(rows, "stream"));
       expectFields(adaptive,
                    {"policy.adaptive.switches", "policy.adaptive.handoffs",
                     "policy.adaptive.member1.objects",
                     "policy.adaptive.member1.share"});
     }},
    {"fault-recovery",
     [](const Rows& rows, const Rows& checks) {
       const std::set<std::string> bytes = valuesOf(
           where(rows, "phase", "checkpointed"), "checkpoint_bytes");
       EXPECT_TRUE(bytes.size() == 1 && std::stod(*bytes.begin()) > 0.0)
           << "checkpointed row must report checkpoint_bytes > 0";
       EXPECT_EQ(where(checks, "claim", "checkpoint overhead stays within 5% "
                                        "of baseline throughput").size(), 1u);
     }},
    {"sharded-serving",
     [](const Rows& rows, const Rows& checks) {
       EXPECT_GE(valuesOf(where(rows, "phase", "identity"), "policy").size(),
                 5u);
       EXPECT_FALSE(checks.empty());
       const Rows scaling = where(rows, "phase", "scaling");
       EXPECT_EQ(valuesOf(scaling, "workers"),
                 (std::set<std::string>{"1", "2", "4"}));
       expectFields(scaling, {"workers", "requests", "critical_path_ms",
                              "requests_per_sec_critical", "speedup_critical",
                              "cross_shard_bytes", "bytes_per_request",
                              "epoch_ms_p99", "congestion", "ratio"});
     }},
};

TEST(BenchReporter, SummaryRecordCarriesRunMetadata) {
  BenchReporter reporter("unit-test");
  reporter.beginRow();
  reporter.field("x", 1);
  reporter.check("a claim that fails", false, 0.5);
  reporter.addTiming(2.0);
  reporter.addTiming(4.0);

  ExperimentContext ctx;
  ctx.seed = 99;
  ctx.seedSet = true;
  ctx.threads = 3;
  ctx.smoke = true;
  const std::string dir =
      testing::TempDir() + "bench_reporter_schema_test";
  EXPECT_FALSE(reporter.passed());
  const std::string path = reporter.writeFile(dir, ctx);
  EXPECT_EQ(path, dir + "/BENCH_unit-test.json");

  const auto parsed = util::parseRecords(slurp(path));
  ASSERT_EQ(parsed.size(), 3u);
  // Row record: schema fields first, in stable order.
  EXPECT_EQ(parsed[0][0].key, "schema_version");
  EXPECT_DOUBLE_EQ(parsed[0][0].number, BenchReporter::kSchemaVersion);
  EXPECT_EQ(parsed[0][1].key, "experiment");
  EXPECT_EQ(parsed[0][1].text, "unit-test");
  EXPECT_EQ(parsed[0][2].key, "kind");
  EXPECT_EQ(parsed[0][2].text, "row");
  // Check record: claim, value, held, in that order.
  EXPECT_NE(slurp(path).find(R"("kind": "check", "claim": "a claim that )"
                             R"(fails", "value": 0.5, "held": false})"),
            std::string::npos);
  // Summary record: verdict, run parameters, machine spec, timing stats.
  const util::ParsedRecord& summary = parsed[2];
  EXPECT_EQ(find(summary, "kind")->text, "summary");
  EXPECT_EQ(find(summary, "passed")->kind, ParsedField::Kind::boolean);
  EXPECT_EQ(find(summary, "passed")->text, "false");
  EXPECT_EQ(find(summary, "mode")->text, "smoke");
  EXPECT_DOUBLE_EQ(find(summary, "seed")->number, 99.0);
  EXPECT_DOUBLE_EQ(find(summary, "threads")->number, 3.0);
  EXPECT_DOUBLE_EQ(find(summary, "rows")->number, 2.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_mean")->number, 3.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_min")->number, 2.0);
  EXPECT_DOUBLE_EQ(find(summary, "wall_ms_max")->number, 4.0);
  ASSERT_NE(find(summary, "host"), nullptr);
  ASSERT_NE(find(summary, "compiler"), nullptr);
  EXPECT_GE(find(summary, "cpus")->number, 1.0);
}

TEST(BenchReporter, EmptyTimingStatsRenderAsNull) {
  BenchReporter reporter("no-timings");
  reporter.check("a claim without a value", true);
  ExperimentContext ctx;
  const std::string path = reporter.writeFile(testing::TempDir(), ctx);
  const auto parsed = util::parseRecords(slurp(path));
  ASSERT_EQ(parsed.size(), 2u);
  EXPECT_EQ(find(parsed[0], "value"), nullptr);
  EXPECT_EQ(find(parsed[1], "passed")->text, "true");
  EXPECT_EQ(find(parsed[1], "wall_ms_mean")->kind,
            ParsedField::Kind::null);
}

// The acceptance gate: every registered experiment, run at smoke scale,
// must pass its paper-claim checks and emit a BENCH_<name>.json that
// round-trips through the parser with the schema fields on every record
// and the rows and checks its contract asks for.
TEST(ExperimentSuite, SmokeSuiteEmitsValidJsonForEveryExperiment) {
  const std::string dir = testing::TempDir() + "hbn_smoke_suite";
  std::filesystem::remove_all(dir);
  for (const std::string& name : bench::experiments().names()) {
    SCOPED_TRACE(name);
    const auto experiment = bench::experiments().create(name);
    ExperimentContext ctx;
    ctx.smoke = true;  // out stays null: tables are discarded
    BenchReporter reporter{std::string(experiment->name())};
    experiment->run(ctx, reporter);
    const std::string path = reporter.writeFile(dir, ctx);

    const auto parsed = util::parseRecords(slurp(path));
    ASSERT_GE(parsed.size(), 2u)
        << name << " must emit at least one row plus the summary";
    Rows rows, checks;
    for (const util::ParsedRecord& record : parsed) {
      const ParsedField* version = find(record, "schema_version");
      ASSERT_NE(version, nullptr);
      EXPECT_DOUBLE_EQ(version->number, BenchReporter::kSchemaVersion);
      EXPECT_EQ(find(record, "experiment")->text, name);
      ASSERT_NE(find(record, "kind"), nullptr);
      if (find(record, "kind")->text == "row") rows.push_back(&record);
      if (find(record, "kind")->text == "check") checks.push_back(&record);
    }
    std::string failedClaims;
    for (const util::ParsedRecord* check : where(checks, "held", "false")) {
      failedClaims += "\n  " + find(*check, "claim")->text;
    }
    EXPECT_TRUE(reporter.passed())
        << "experiment claims failed: " << name << failedClaims;
    EXPECT_EQ(find(parsed.back(), "kind")->text, "summary");
    EXPECT_EQ(find(parsed.back(), "passed")->kind,
              ParsedField::Kind::boolean);
    EXPECT_EQ(find(parsed.back(), "passed")->text, "true");
    if (kContracts.contains(name)) kContracts.at(name)(rows, checks);
  }
}

// Determinism of the emitted trajectory: the same (experiment, seed) pair
// must produce identical measurement rows run-to-run (the summary record
// differs only in wall-clock fields).
TEST(ExperimentSuite, RingVsBusRowsAreDeterministic) {
  auto runOnce = [] {
    const auto experiment = bench::experiments().create("ring-vs-bus");
    ExperimentContext ctx;
    ctx.smoke = true;
    BenchReporter reporter{std::string(experiment->name())};
    experiment->run(ctx, reporter);
    const std::string dir = testing::TempDir() + "hbn_determinism";
    return slurp(reporter.writeFile(dir, ctx));
  };
  const auto first = util::parseRecords(runOnce());
  const auto second = util::parseRecords(runOnce());
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t r = 0; r + 1 < first.size(); ++r) {  // skip summary
    ASSERT_EQ(first[r].size(), second[r].size());
    for (std::size_t f = 0; f < first[r].size(); ++f) {
      EXPECT_EQ(first[r][f].key, second[r][f].key);
      EXPECT_EQ(first[r][f].text, second[r][f].text);
    }
  }
}

}  // namespace
}  // namespace hbn
