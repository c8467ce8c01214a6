// pdmm_bench: the unified benchmark runner. Links every harness registered
// in bench/ (via the pdmm_bench_suite object library) and runs any subset
// by name/regex with shared repetition, warmup, thread, seed and JSON
// handling:
//
//   pdmm_bench --list                      # registered benchmarks
//   pdmm_bench --match='^throughput$'      # one harness
//   pdmm_bench --match='scenario_.*'       # run a subset
//   pdmm_bench --smoke --json=out.json     # tiny sizes, full JSON report
//   pdmm_bench --json=BENCH_pdmm.json      # the committed baseline (reps 3)
//
// tools/bench_compare.py compares two reports: the counters of every
// matched point must be equal. The JSON schema (pdmm-bench-v1) is
// documented in README.md; per-harness methodology lives in
// docs/EXPERIMENTS.md.
#include "../bench/registry.h"

int main(int argc, char** argv) {
  return pdmm::bench::bench_main(argc, argv);
}
