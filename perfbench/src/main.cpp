// pdmm_perfbench: the repository benchmark's measuring program.
//
//   pdmm_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --work_dir=DIR [--commit=REV]
//
// Workloads: churn_small_t1, churn_wide_t4, durable_serve (README.md in
// this directory says why each exists). The seed drives the update-stream
// generator only; the matcher's own seed is a fixed constant, so a new
// seed changes the adversary, not the algorithm's coins. All inputs are
// generated during set-up, before anything is timed.
//
// With --trace=0 the last stdout line carries the end-to-end metrics; with
// --trace=1 the run records spans around every call into a library layer
// and reports the per-layer metrics instead, writing the spans to
// DIR/spans.jsonl. Exit status: 0 after a printed result (correct or
// not), 2 on bad arguments, 3 when the program could not measure.
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "report.h"
#include "util/parse_num.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: pdmm_perfbench --workload=churn_small_t1|churn_wide_t4|"
               "durable_serve --seed=N --seconds=S --trace=0|1 "
               "--work_dir=DIR [--commit=REV]\n");
}

}  // namespace

int main(int argc, char** argv) {
#ifndef NDEBUG
  std::fprintf(stderr, "pdmm_perfbench: refusing to measure a build with "
                       "assertions enabled (build type %s)\n",
               PERFBENCH_BUILD_TYPE);
  return 3;
#endif
  using perfbench::Args;
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const size_t eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos) {
      usage();
      return 2;
    }
    const std::string key = a.substr(2, eq - 2), val = a.substr(eq + 1);
    uint64_t u = 0;
    double d = 0;
    if (key == "workload") {
      args.workload_name = val;
      have_workload = true;
    } else if (key == "seed" &&
               pdmm::parse_u64_strict(val, u) == pdmm::ParseNum::kOk) {
      args.seed = u;
      have_seed = true;
    } else if (key == "seconds" &&
               pdmm::parse_f64_strict(val, d) == pdmm::ParseNum::kOk &&
               d > 0 && d <= 120) {
      args.seconds = d;
      have_seconds = true;
    } else if (key == "trace" && (val == "0" || val == "1")) {
      args.trace = val == "1";
      have_trace = true;
    } else if (key == "work_dir" && !val.empty()) {
      args.work_dir = val;
    } else if (key == "commit") {
      args.commit = val;
    } else {
      usage();
      return 2;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace ||
      args.work_dir.empty()) {
    usage();
    return 2;
  }
  if (args.workload_name == "churn_small_t1") {
    args.workload = perfbench::kChurnSmall;
  } else if (args.workload_name == "churn_wide_t4") {
    args.workload = perfbench::kChurnWide;
  } else if (args.workload_name == "durable_serve") {
    args.workload = perfbench::kDurableServe;
  } else {
    usage();
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "pdmm_perfbench: cannot create %s: %s\n",
                 args.work_dir.c_str(), ec.message().c_str());
    return 3;
  }

  perfbench::Report rep;
  const int rc = args.workload == perfbench::kDurableServe
                     ? perfbench::run_durable(args, rep)
                     : perfbench::run_churn(args, rep);
  if (rc != 0) return rc;
  rep.print(args);
  return 0;
}
