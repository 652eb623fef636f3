#include "hbn/engine/experiment.h"

#include <algorithm>
#include <filesystem>
#include <limits>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#ifdef __unix__
#include <sys/utsname.h>
#include <unistd.h>
#endif

namespace hbn::engine {
namespace {

/// Stream buffer that swallows everything; backs ExperimentContext::os()
/// when no table destination was configured.
class NullBuffer final : public std::streambuf {
 protected:
  int overflow(int c) override { return c; }
};

std::string hostName() {
#ifdef __unix__
  char buf[256] = {};
  if (::gethostname(buf, sizeof(buf) - 1) == 0 && buf[0] != '\0') {
    return buf;
  }
#endif
  return "unknown";
}

std::string osName() {
#ifdef __unix__
  struct utsname uts{};
  if (::uname(&uts) == 0) {
    return std::string(uts.sysname) + " " + uts.release;
  }
#endif
  return "unknown";
}

std::string compilerName() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace

int ExperimentContext::trials(int full) const {
  if (!smoke) return full;
  return std::max(2, full / 4);
}

std::ostream& ExperimentContext::os() const {
  if (out != nullptr) return *out;
  static NullBuffer buffer;
  static std::ostream sink(&buffer);
  return sink;
}

BenchReporter::BenchReporter(std::string experimentName)
    : name_(std::move(experimentName)) {}

void BenchReporter::beginRecord(std::string_view kind) {
  records_.beginRecord();
  records_.field("schema_version", kSchemaVersion);
  records_.field("experiment", name_);
  records_.field("kind", kind);
}

void BenchReporter::field(std::string_view key, std::string_view value) {
  records_.field(key, value);
}

void BenchReporter::field(std::string_view key, std::int64_t value) {
  records_.field(key, value);
}

void BenchReporter::field(std::string_view key, double value) {
  records_.field(key, value);
}

void BenchReporter::field(std::string_view key, bool value) {
  records_.field(key, value);
}

void BenchReporter::check(std::string_view claim, bool held,
                          std::optional<double> value) {
  beginRecord("check");
  field("claim", claim);
  if (value) field("value", *value);
  field("held", held);
  passed_ = passed_ && held;
}

void BenchReporter::summary(std::string_view prefix,
                            const util::Accumulator& acc) {
  const std::string p(prefix);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  records_.field(p + "_mean", acc.empty() ? nan : acc.mean());
  records_.field(p + "_p50", acc.empty() ? nan : acc.percentile(50.0));
  records_.field(p + "_p90", acc.empty() ? nan : acc.percentile(90.0));
  records_.field(p + "_min", acc.empty() ? nan : acc.min());
  records_.field(p + "_max", acc.empty() ? nan : acc.max());
}

std::string BenchReporter::writeFile(const std::string& dir,
                                     const ExperimentContext& ctx) {
  beginRecord("summary");
  field("passed", passed_);
  field("mode", ctx.smoke ? "smoke" : "full");
  records_.field("seed", static_cast<std::int64_t>(ctx.seed));
  records_.field("threads", ctx.threads);
  records_.field("rows", static_cast<std::int64_t>(rowCount() - 1));
  summary("wall_ms", wallMs_);
  records_.field("host", hostName());
  records_.field("os", osName());
  records_.field("compiler", compilerName());
  records_.field(
      "cpus", static_cast<std::int64_t>(std::thread::hardware_concurrency()));

  std::string path = dir.empty() ? "." : dir;
  std::filesystem::create_directories(path);
  if (path.back() != '/') path.push_back('/');
  path += "BENCH_" + name_ + ".json";
  records_.writeFile(path);
  return path;
}

ExperimentRegistry& ExperimentRegistry::global() {
  static ExperimentRegistry* registry = new ExperimentRegistry();
  return *registry;
}

std::string ExperimentRegistry::helpText() const {
  std::ostringstream oss;
  for (const ExperimentInfo& info : list()) {
    oss << "  " << info.name;
    if (!info.optionsHelp.empty()) oss << "[:" << info.optionsHelp << "]";
    oss << "  (" << info.paperRef << ")\n      " << info.summary << "\n";
  }
  return oss.str();
}

}  // namespace hbn::engine
