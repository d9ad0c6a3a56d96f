// nxbench - one run of one benchmark workload.
//
//   nxbench --workload eval_sweep|train_sweep|fleet_rounds --seed N
//           --seconds S --trace 0|1 [--scratch DIR]
//
// Prints one JSON line (metrics, simulated outcomes, fingerprints, check
// counts, build flags) on stdout; nxbench/run.py builds this binary, runs
// it, checks the fingerprints against nxbench/pinned.json and writes the
// stamped result file. Exit code 2 = bad arguments or a run that threw.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "nxbench: %s\nusage: nxbench --workload eval_sweep|train_sweep|fleet_rounds "
               "--seed N --seconds S --trace 0|1 [--scratch DIR]\n",
               why);
  std::exit(2);
}

nxbench::Args parse(int argc, char** argv) {
  nxbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    try {
      if (key == "--workload") {
        args.workload = value;
      } else if (key == "--seed") {
        args.seed = std::stoull(value);
      } else if (key == "--seconds") {
        args.seconds = std::stod(value);
      } else if (key == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (key == "--scratch") {
        args.scratch = value;
      } else {
        usage(("unknown option " + key).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + key).c_str());
    }
  }
  if (!(args.seconds > 0.0 && args.seconds <= 120.0)) usage("--seconds must be in (0, 120]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const nxbench::Args args = parse(argc, argv);
  nxbench::Report report;
  // Stamped into every result; the traced run subtracts it from each lap.
  report.info["clock_lap_ns"] = nxbench::calibrate_clock_lap_ns();
  report.info["workers"] = static_cast<double>(nxbench::bench_workers());
  try {
    if (args.workload == "eval_sweep") {
      nxbench::run_eval_sweep(args, report);
    } else if (args.workload == "train_sweep") {
      nxbench::run_train_sweep(args, report);
    } else if (args.workload == "fleet_rounds") {
      nxbench::run_fleet_rounds(args, report);
    } else {
      usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nxbench: %s run threw: %s\n", args.workload.c_str(), e.what());
    return 2;
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}
