// Command-line driver behind `hbn_bench`: bench-specific flags are
// peeled off here, everything else goes through the shared
// engine::parseCli so --strategy/--threads/--seed behave identically
// across every frontend.
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "hbn/engine/cli.h"
#include "hbn/engine/experiment.h"
#include "hbn/util/table.h"
#include "hbn/util/timer.h"

namespace hbn::engine {
namespace {

struct BenchCli {
  bool list = false;
  std::string suite;   ///< "" = none; otherwise smoke|full
  std::string outDir;  ///< "" = current directory
  CliOptions shared;   ///< the flags every strategy frontend understands
};

/// Splits bench-only flags out of argv, then hands the remainder to the
/// shared parser. Throws std::invalid_argument on malformed input.
BenchCli parseBenchCli(int argc, char** argv) {
  BenchCli cli;
  std::vector<char*> rest;
  rest.reserve(static_cast<std::size_t>(argc));
  rest.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const std::string& flag) -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(flag + " expects a value");
      }
      return argv[++i];
    };
    if (arg == "--list" || arg == "-l") {
      cli.list = true;
    } else if (arg == "--suite") {
      cli.suite = value(arg);
    } else if (arg.rfind("--suite=", 0) == 0) {
      cli.suite = arg.substr(std::string("--suite=").size());
    } else if (arg == "--out" || arg == "-o") {
      cli.outDir = value(arg);
    } else if (arg.rfind("--out=", 0) == 0) {
      cli.outDir = arg.substr(std::string("--out=").size());
    } else {
      rest.push_back(argv[i]);
    }
  }
  cli.shared = parseCli(static_cast<int>(rest.size()), rest.data());
  return cli;
}

void printUsage(std::ostream& os, const ExperimentRegistry& registry) {
  os << "usage: hbn_bench [options] [EXPERIMENT[:key=value,...] ...]\n"
        "\n"
        "Runs the paper's experiments through the unified harness; every\n"
        "run writes a schema-versioned BENCH_<experiment>.json next to its\n"
        "human-readable tables.\n"
        "\n"
        "options:\n"
        "  --list            list registered experiments and exit\n"
        "  --suite NAME      run every experiment: 'smoke' (reduced trial\n"
        "                    budget, CI-sized) or 'full'\n"
        "  --out DIR         directory for BENCH_*.json (default: .)\n"
        "  --strategy SPEC   strategy override for comparative experiments\n"
        "                    (repeatable; name[:key=value,...])\n"
        "  --threads N       worker threads (0 = all cores)\n"
        "  --seed N          RNG seed override\n"
        "  --help            show this text\n"
        "\n"
        "experiments:\n"
     << registry.helpText();
}

}  // namespace

int runBenchCli(const ExperimentRegistry& registry, int argc, char** argv) {
  try {
    const BenchCli cli = parseBenchCli(argc, argv);
    if (cli.shared.help) {
      printUsage(std::cout, registry);
      return 0;
    }
    if (cli.list) {
      util::Table table({"experiment", "paper ref", "summary"});
      for (const ExperimentInfo& info : registry.list()) {
        table.addRow({info.name, info.paperRef, info.summary});
      }
      table.print(std::cout);
      std::cout << "\n" << table.rowCount()
                << " experiments; run one with `hbn_bench NAME`, all with "
                   "`hbn_bench --suite=smoke|full`\n";
      return 0;
    }

    std::vector<std::string> specs = cli.shared.positional;
    bool smoke = false;
    if (!cli.suite.empty()) {
      if (!specs.empty()) {
        throw std::invalid_argument(
            "--suite runs every experiment; drop the explicit experiment "
            "names");
      }
      if (cli.suite == "smoke") {
        smoke = true;
      } else if (cli.suite != "full") {
        throw std::invalid_argument("unknown suite '" + cli.suite +
                                    "'; available: smoke full");
      }
      specs = registry.names();
    }
    if (specs.empty()) {
      printUsage(std::cerr, registry);
      return 2;
    }

    bool allPassed = true;
    for (const std::string& spec : specs) {
      // One experiment failing — a bad option, a strategy override it
      // cannot honour, a thrown claim check — must not abort the rest of
      // a suite run: mark it FAIL, keep its partial JSON, move on.
      try {
        const std::unique_ptr<Experiment> experiment = registry.create(spec);
        ExperimentContext ctx;
        ctx.seed = cli.shared.seed;
        ctx.seedSet = cli.shared.seedSet;
        ctx.threads = cli.shared.threads;
        ctx.smoke = smoke;
        ctx.strategies = cli.shared.strategies;
        ctx.out = &std::cout;

        BenchReporter reporter{std::string(experiment->name())};
        util::Timer timer;
        try {
          experiment->run(ctx, reporter);
        } catch (const std::exception& e) {
          std::cerr << "error: [" << experiment->name() << "] " << e.what()
                    << "\n";
          reporter.check(std::string("run completes (threw: ") + e.what() + ")",
                         false);
        }
        const double totalMs = timer.millis();
        const bool passed = reporter.passed();
        allPassed &= passed;
        const std::string path = reporter.writeFile(cli.outDir, ctx);
        std::cout << "\n[" << experiment->name() << "] "
                  << (passed ? "PASS" : "FAIL") << " in "
                  << util::formatDouble(totalMs, 1) << " ms — wrote " << path
                  << " (" << reporter.rowCount() << " records)\n\n";
      } catch (const std::exception& e) {
        allPassed = false;
        std::cerr << "error: [" << spec << "] " << e.what() << "\n";
      }
    }
    if (specs.size() > 1) {
      std::cout << (allPassed ? "suite PASS" : "suite FAIL") << " ("
                << specs.size() << " experiments)\n";
    }
    return allPassed ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}

}  // namespace hbn::engine
