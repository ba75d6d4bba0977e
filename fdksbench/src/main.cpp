// fdksbench: run one workload of the fdks benchmark and print its result
// as one JSON line (the last line of standard output).
//
//   fdksbench --workload krr-cv|serve-gsks|dist-hybrid --seed N
//             --seconds S --trace 0|1 [--smoke] [--out-dir DIR]
//
// --trace 0 reports the end-to-end metrics with the obs registry off;
// --trace 1 reports the per-layer metrics of a traced run and writes its
// spans to DIR. Exit status: 0 when every check passed, 1 when a check
// failed (the JSON line says how many), 2 on bad arguments, 3 when the
// workload could not run at all.
#include <omp.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "harness.hpp"
#include "workloads.hpp"

namespace {

using fdksbench::Args;

bool parse_u64(const char* s, std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

bool parse_double(const char* s, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(s, &end);
  if (errno != 0 || end == s || *end != '\0') return false;
  out = v;
  return true;
}

int usage(const char* why) {
  std::fprintf(stderr,
               "fdksbench: %s\nusage: fdksbench --workload "
               "krr-cv|serve-gsks|dist-hybrid --seed N --seconds S "
               "--trace 0|1 [--smoke] [--out-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::uint64_t trace = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--smoke") {
      args.smoke = true;
    } else if (a == "--workload" && has_value) {
      args.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      if (!parse_u64(argv[++i], args.seed)) return usage("bad --seed");
    } else if (a == "--seconds" && has_value) {
      if (!parse_double(argv[++i], args.seconds) || args.seconds <= 0.0)
        return usage("bad --seconds");
    } else if (a == "--trace" && has_value) {
      if (!parse_u64(argv[++i], trace) || trace > 1)
        return usage("bad --trace");
    } else if (a == "--out-dir" && has_value) {
      args.out_dir = argv[++i];
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  args.trace = trace == 1;

  // Every compute path runs on one OpenMP thread: on a small shared host
  // more threads were both slower and far noisier (README). Threads the
  // library starts itself (engine worker, mpisim ranks) take theirs from
  // OMP_NUM_THREADS, which run.py sets to 1.
  omp_set_num_threads(1);
  fdksbench::Report rep;
  try {
    if (args.workload == "krr-cv") {
      fdksbench::run_krr_cv(args, rep);
    } else if (args.workload == "serve-gsks") {
      fdksbench::run_serve_gsks(args, rep);
    } else if (args.workload == "dist-hybrid") {
      fdksbench::run_dist_hybrid(args, rep);
    } else {
      return usage("unknown workload");
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fdksbench: workload %s aborted: %s\n",
                 args.workload.c_str(), e.what());
    return 3;
  }
  if (args.trace && !args.out_dir.empty()) {
    fdksbench::spans().write_chrome(args.out_dir + "/spans-" + args.workload +
                                    "-seed" + std::to_string(args.seed) +
                                    ".json");
  }
  std::fprintf(stdout, "%s\n", rep.json().c_str());
  std::fflush(stdout);
  return rep.has_failures() ? 1 : 0;
}
