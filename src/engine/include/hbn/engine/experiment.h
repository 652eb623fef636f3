// The unified experiment harness: every benchmark in the repository — the
// paper's congestion-ratio, runtime-scaling, distributed-round and
// ablation studies — is exposed through one abstract interface so that a
// single driver (`hbn_bench`) can list, select, and run any of them, and
// so that every run emits the same schema-versioned machine-readable
// record file (`BENCH_<experiment>.json`) for the cross-PR perf
// trajectory.
//
// The layer deliberately mirrors the strategy engine one directory over:
//   PlacementStrategy : StrategyRegistry  ==  Experiment : ExperimentRegistry
// and reuses StrategyOptions, so experiment specs share the exact
// `name[:key=value,...]` syntax of strategy specs (`runtime:reps=5`).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "hbn/engine/registry.h"
#include "hbn/util/json.h"
#include "hbn/util/stats.h"

namespace hbn::engine {

/// Per-run execution context handed to Experiment::run(). Owns everything
/// that is not part of an experiment's identity: the RNG seed, the
/// worker-thread budget forwarded into strategy Contexts, the smoke/full
/// scale switch, optional strategy-spec overrides for comparative
/// experiments, and the stream human-readable tables go to.
struct ExperimentContext {
  std::uint64_t seed = 0;  ///< meaningful only when seedSet
  bool seedSet = false;
  int threads = 1;  ///< worker threads; 0 = hardware concurrency
  /// Smoke mode runs the same code paths at a fraction of the trial
  /// budget so the full suite fits a CI minute; see trials().
  bool smoke = false;
  /// Non-empty overrides the experiment's default strategy set
  /// (experiments that compare strategies honour it; others ignore it).
  std::vector<std::string> strategies;
  /// Destination for human-readable tables; nullptr discards them.
  std::ostream* out = nullptr;

  /// The seed this run actually uses: --seed when given, otherwise the
  /// experiment's deterministic default. Records the choice in `seed`,
  /// so the summary record reports the effective seed — replaying with
  /// `--seed <summary.seed>` reproduces the rows exactly.
  [[nodiscard]] std::uint64_t resolveSeed(std::uint64_t fallback) {
    if (!seedSet) {
      seed = fallback;
      seedSet = true;
    }
    return seed;
  }
  /// Scales a full-resolution trial count down in smoke mode (>= 2 so
  /// accumulator statistics stay meaningful).
  [[nodiscard]] int trials(int full) const;
  /// The table stream: *out, or a sink that discards everything.
  [[nodiscard]] std::ostream& os() const;
};

/// Collects an experiment's measurements and writes the schema-versioned
/// `BENCH_<experiment>.json` trajectory file.
///
/// The file is a flat-record JSON array (util::JsonRecords). Every record
/// carries `schema_version`, `experiment`, and `kind`; measurement rows
/// use kind="row" with experiment-specific fields, paper claims use
/// kind="check" (written by check(), which also folds the claim into the
/// run's verdict), and writeFile() appends one kind="summary" record
/// holding the run parameters (seed, threads, mode), the machine spec
/// (host, os, cpus, compiler), wall-clock percentiles over all
/// addTiming() samples, and that verdict.
class BenchReporter {
 public:
  /// Bump when record fields change incompatibly; consumers of the perf
  /// trajectory filter on it.
  static constexpr int kSchemaVersion = 1;

  explicit BenchReporter(std::string experimentName);

  /// Starts a measurement record (kind="row"); subsequent field() calls
  /// attach to it.
  void beginRow() { beginRecord("row"); }

  void field(std::string_view key, std::string_view value);
  void field(std::string_view key, const char* value) {
    field(key, std::string_view(value));
  }
  void field(std::string_view key, std::int64_t value);
  void field(std::string_view key, int value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(std::string_view key, std::uint64_t value) {
    field(key, static_cast<std::int64_t>(value));
  }
  void field(std::string_view key, double value);
  void field(std::string_view key, bool value);

  /// Writes one kind="check" record (`claim`, `value` when given,
  /// `held`) and folds `held` into the verdict: a check is a gate, so
  /// one that does not hold fails the run.
  void check(std::string_view claim, bool held,
             std::optional<double> value = {});

  /// The verdict so far: true iff every check() held.
  [[nodiscard]] bool passed() const noexcept { return passed_; }

  /// Emits `<prefix>_mean/_p50/_p90/_min/_max` fields into the current
  /// record (all null when the accumulator is empty).
  void summary(std::string_view prefix, const util::Accumulator& acc);

  /// Feeds one wall-clock sample (milliseconds) into the run-level
  /// percentiles reported by the summary record.
  void addTiming(double wallMs) { wallMs_.add(wallMs); }

  [[nodiscard]] const std::string& experiment() const noexcept {
    return name_;
  }
  [[nodiscard]] std::size_t rowCount() const noexcept {
    return records_.recordCount();
  }

  /// Appends the summary record (verdict: passed()) and writes
  /// `<dir>/BENCH_<experiment>.json`. Returns the path written. `dir`
  /// empty means the current directory.
  std::string writeFile(const std::string& dir, const ExperimentContext& ctx);

 private:
  /// Starts a record of `kind` with the schema fields every record has.
  void beginRecord(std::string_view kind);

  std::string name_;
  util::JsonRecords records_;
  util::Accumulator wallMs_;
  bool passed_ = true;
};

/// Abstract experiment: a registry name plus a run() that prints its
/// human tables to ctx.os(), deposits one reporter row per measurement
/// and one BenchReporter::check() per paper claim. The reporter's
/// verdict (and a thrown exception, which fails the run) is what the
/// process exit code of `hbn_bench` aggregates.
///
/// Implementations must derive all randomness from ctx.resolveSeed(...) so a
/// given (seed, experiment) pair is reproducible, and must scale their
/// trial budgets through ctx.trials() so smoke mode stays fast.
class Experiment {
 public:
  virtual ~Experiment() = default;

  /// Canonical registry name (e.g. "approx-ratio").
  [[nodiscard]] virtual std::string_view name() const = 0;

  /// Runs the experiment, recording its claims through reporter.check().
  virtual void run(ExperimentContext& ctx, BenchReporter& reporter) const = 0;
};

/// Registry metadata shown by `hbn_bench --list` and --help.
struct ExperimentInfo {
  std::string name;      ///< canonical name
  std::string summary;   ///< one-line description
  std::string paperRef;  ///< paper anchor, e.g. "E1 / Theorem 4.3"
  std::string optionsHelp;  ///< "reps=N" style, may be empty
};

/// Name→factory registry for experiments; the experiment twin of
/// StrategyRegistry, sharing the SpecRegistry machinery, spec syntax,
/// and option parser.
class ExperimentRegistry : public SpecRegistry<Experiment, ExperimentInfo> {
 public:
  ExperimentRegistry() : SpecRegistry("experiment") {}

  /// The process-wide registry. Unlike StrategyRegistry::global() it
  /// starts empty: experiment implementations live in the bench library,
  /// which populates it via hbn::bench::experiments().
  [[nodiscard]] static ExperimentRegistry& global();

  /// Multi-line help text enumerating experiments and their options.
  [[nodiscard]] std::string helpText() const;
};

/// The `hbn_bench` command-line driver: --list, --suite=smoke|full,
/// explicit experiment specs, shared --seed/--threads/--strategy flags,
/// --out DIR for the JSON files. Returns the process exit code (0 iff
/// every selected experiment's claims held).
int runBenchCli(const ExperimentRegistry& registry, int argc, char** argv);

}  // namespace hbn::engine
