// The repository benchmark: one workload from a seed, every product
// checked, the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) printed as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--scratch <dir>]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>

#include "common/parallel.hpp"
#include "common/residency.hpp"
#include "simd/dispatch.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* val = argv[i + 1];
    if (key == "--workload") {
      args.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      args.seed = std::strtoull(val, nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      args.seconds = std::strtod(val, nullptr);
      have_seconds = args.seconds > 0;
    } else if (key == "--trace") {
      args.trace = std::strcmp(val, "1") == 0;
    } else if (key == "--scratch") {
      args.scratch = val;
    } else {
      throw std::runtime_error("unknown argument " + key);
    }
  }
  if (argc % 2 == 0 || !have_workload || !have_seed || !have_seconds)
    throw std::runtime_error(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> "
        "--trace <0|1> [--scratch <dir>]");
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, Outcome (*)(const Args&, Report&)> workloads = {
      {"square_amortized", square_amortized},
      {"serve_skinny", serve_skinny},
      {"serve_sharded", serve_sharded},
      {"serve_mmap", serve_mmap},
  };
  try {
    const Args args = parse(argc, argv);
    const auto it = workloads.find(args.workload);
    if (it == workloads.end())
      throw std::runtime_error("unknown workload " + args.workload);
    Report::note("host",
                 Json()
                     .str("workload", args.workload)
                     .num("seed", static_cast<double>(args.seed))
                     .num("seconds", args.seconds)
                     .num("trace", args.trace ? 1 : 0)
                     .num("nproc", online_cores())
                     .num("omp_max_threads", cw::num_threads())
                     .str("simd_tier",
                          cw::simd::to_string(cw::simd::active_tier()))
                     .num("residency_supported",
                          cw::residency::supported() ? 1 : 0)
                     .str("build_type", PERFBENCH_BUILD_TYPE)
                     .done());
    Report report(args.trace);
    const Outcome out = it->second(args, report);
    report.print(out.attempted, out.failed, out.absent_reason);
    return out.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
