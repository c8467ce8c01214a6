// Benchmark registry and orchestration — the pdmm_bench subsystem.
//
// Every experiment harness in bench/ registers itself here (registry name,
// experiment id, the paper claim it probes, entry point). tools/pdmm_bench
// links every bench_*.cpp translation unit and runs any subset by
// name/regex with shared --reps / --warmup / --threads / --seed / --smoke /
// --json handling (bench_main); `pdmm_bench --match='^throughput$'` runs
// one harness.
//
// Results are structured SweepPoints, not printf rows: one point per sweep
// configuration, carrying machine-independent counters (element work,
// parallel rounds, max per-batch rounds) and the wall-clock distribution
// (median/min/max) over --reps repetitions. Each repetition reconstructs
// matcher and stream from fixed seeds, so the counters must be identical
// across repetitions — the registry prints a determinism warning when they
// are not. Points stream to stdout as aligned text and, with --json, into
// one BENCH_pdmm.json document (schema documented in README.md), which
// tools/bench_compare.py compares against a baseline.
#pragma once

#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace pdmm::bench {

// Shared run options, set by the pdmm_bench command line.
struct RunOptions {
  size_t reps = 3;      // repetitions per sweep point (wall-clock stats)
  double warmup = 1.0;  // scale factor applied to each harness's warm phase
  unsigned threads = 0;  // overrides each harness's ThreadPool size (0: keep)
  uint64_t seed = 0;     // remixes matcher/stream seeds (0: keep defaults)
  bool smoke = false;    // tiny problem sizes: exercise every path quickly
  // Per-benchmark parameter overrides: the flags ArgParse::rest() leaves
  // (e.g. --n=8192). A key no selected benchmark consumed is reported
  // after the run, which then exits 2.
  std::map<std::string, std::string> overrides;
};

// One measured repetition of one sweep point. The body of Ctx::point()
// returns this; `seconds` covers only the measured segment (not setup or
// warmup), which the body times itself (DriveResult::seconds usually).
struct Sample {
  double seconds = 0.0;
  uint64_t work = 0;             // element operations (machine-independent)
  uint64_t rounds = 0;           // parallel rounds (depth proxy)
  uint64_t updates = 0;          // edge updates processed in the segment
  uint64_t max_batch_rounds = 0;  // deepest single batch in the segment
  // Harness-specific derived metrics (work_per_update, ratio, ...).
  std::vector<std::pair<std::string, double>> metrics;
};

// Aggregated result of one sweep point: counters from the last repetition
// plus the wall-clock distribution over all repetitions.
struct SweepPoint {
  std::vector<std::pair<std::string, std::string>> params;  // sweep axes
  Sample sample;             // counters/metrics (identical across reps)
  size_t reps = 0;
  double seconds_median = 0.0;
  double seconds_min = 0.0;
  double seconds_max = 0.0;
  double updates_per_sec = 0.0;  // updates / seconds_median (0 if untimed)
};

class Ctx;

struct Benchmark {
  const char* name;        // registry name, e.g. "throughput"
  const char* experiment;  // experiment id from the paper mapping, e.g. "E5"
  const char* claim;       // one-line paper claim this harness probes
  void (*fn)(Ctx&);
};

// Param helpers so call sites stay terse:
//   ctx.point({p("impl", name), p("k", k)}, [&] { ... });
inline std::pair<std::string, std::string> p(std::string name,
                                             std::string value) {
  return {std::move(name), std::move(value)};
}
inline std::pair<std::string, std::string> p(std::string name,
                                             const char* value) {
  return {std::move(name), value};
}
inline std::pair<std::string, std::string> p(std::string name, uint64_t v) {
  return {std::move(name), std::to_string(v)};
}
inline std::pair<std::string, std::string> p(std::string name, uint32_t v) {
  return {std::move(name), std::to_string(v)};
}
inline std::pair<std::string, std::string> p(std::string name, int v) {
  return {std::move(name), std::to_string(v)};
}
inline std::pair<std::string, std::string> p(std::string name, double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return {std::move(name), buf};
}

// Execution context handed to each benchmark body. Provides smoke-aware
// parameter resolution and the sweep-point protocol.
class Ctx {
 public:
  using Params = std::vector<std::pair<std::string, std::string>>;

  Ctx(const Benchmark& bench, const RunOptions& opt);

  // Sweep parameter with full-run and smoke-run defaults. A CLI override
  // (--name=value) always wins, then the smoke default in --smoke mode,
  // then the full default. A malformed or out-of-range override prints
  // ArgParse's message and exits 2, so a harness reads its parameters
  // before it runs a point. u32 is for values kept in 32 bits (vertex
  // counts): past 2^32 - 1 is out of range, not wrapped.
  uint64_t u64(const std::string& name, uint64_t full, uint64_t smoke);
  uint32_t u32(const std::string& name, uint32_t full, uint32_t smoke);

  // ThreadPool size: the --threads override, else the harness default.
  unsigned threads(unsigned def) const;
  // Seed: the harness default, remixed with --seed when one is given (so
  // one flag re-seeds every generator/matcher coherently).
  uint64_t seed(uint64_t def) const;
  // Warm-phase size scaled by --warmup (never below one batch's worth).
  size_t warm(size_t base) const;

  bool smoke() const { return opt_.smoke; }
  const RunOptions& options() const { return opt_; }
  const Benchmark& bench() const { return bench_; }

  // Runs `body` reps times, collects the wall-clock distribution, verifies
  // counter determinism across repetitions, prints one aligned text line
  // and records the point for JSON emission. Returns a copy of the
  // recorded point (points_ may reallocate on later calls, so no
  // references into it escape).
  SweepPoint point(Params params, const std::function<Sample()>& body);

  // Records an auxiliary, pre-measured point (per-level / per-window
  // breakdowns computed inside another point's body). Untimed: no
  // wall-clock distribution is attached.
  SweepPoint record(Params params, Sample sample);

  // Free-form annotation line (expectations, crossover notes). Text only —
  // notes do not enter the JSON report.
  void note(const std::string& text);

  const std::vector<SweepPoint>& points() const { return points_; }
  std::vector<std::string> consumed_overrides() const;

 private:
  uint64_t uint_param(const std::string& name, uint64_t full, uint64_t smoke,
                      unsigned bits);
  SweepPoint finish_point(SweepPoint sp);

  const Benchmark& bench_;
  const RunOptions& opt_;
  std::map<std::string, bool> consumed_;
  std::vector<SweepPoint> points_;
};

// Registration. Benchmarks register via a namespace-scope Registrar in
// their own translation unit; the registry orders them by name.
void register_benchmark(const Benchmark& b);
const std::vector<Benchmark>& all_benchmarks();

struct Registrar {
  Registrar(const char* name, const char* experiment, const char* claim,
            void (*fn)(Ctx&)) {
    register_benchmark({name, experiment, claim, fn});
  }
};

// The pdmm_bench CLI over every registered benchmark.
int bench_main(int argc, char** argv);

}  // namespace pdmm::bench
