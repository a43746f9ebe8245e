// perfbench: one run of one engine-benchmark workload.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//
// --trace 0 measures the end-to-end metrics with the real solvers; --trace 1
// runs the traced mirror loops (traced.cpp) for the per-layer metrics. Human
// diagnostics go to stdout first; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}. Exit status 0 only when the
// run completed; a failed correctness check still prints its result with
// "correct": false.

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench.hpp"
#include "report.hpp"
#include "traced.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using am::support::Clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".bench_build/work";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\nworkloads:";
  for (const WorkloadSpec& spec : workloads()) std::cerr << ' ' << spec.name;
  std::cerr << '\n';
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        args.trace = value == "1";
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (find_workload(args.workload) == nullptr) usage("unknown workload '" + args.workload + "'");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

std::string worker_binary() {
  std::error_code ec;
  const fs::path exe = fs::read_symlink("/proc/self/exe", ec);
  return ec ? std::string("asyncml_worker") : (exe.parent_path() / "asyncml_worker").string();
}

}  // namespace

int run(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const WorkloadSpec& spec = *find_workload(args.workload);
  const fs::path workdir =
      fs::absolute(fs::path(args.workdir) / (spec.name + "-" + std::to_string(::getpid())));
  fs::create_directories(workdir);

  RunContext ctx;
  ctx.spec = &spec;
  ctx.seed = args.seed;
  ctx.seconds = args.seconds;
  ctx.workdir = workdir.string();
  ctx.worker_binary = worker_binary();
  ctx.ticks_start = read_cpu_ticks();
  ctx.cpu_start = self_cpu_s();
  ctx.children_start = reaped_children_cpu_s();

  const RunOutcome outcome = args.trace ? run_traced(ctx) : run_untraced(ctx);

  std::error_code ec;
  fs::remove_all(workdir, ec);
  print_diagnostics(ctx, outcome);
  std::cout << outcome.json() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: aborted: " << e.what() << '\n';
    return 1;
  }
}
