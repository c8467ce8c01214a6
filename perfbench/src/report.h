// Shared plumbing of the benchmark program: the per-run report, order
// statistics, process resource usage and the span log of the traced run.
// The metric catalogue (names, units) lives in BENCHMARK.json only; run.py
// attaches the units and checks the program's metrics against it.
#pragma once

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/config.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double s_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double ratio(double a, double b) { return b > 0 ? a / b : 0; }

// The matcher's coins are fixed; --seed only moves the adversary.
constexpr uint64_t kMatcherSeed = 0x5eedULL;

// Set-ups per run, from scratch, rotated over the CPUs; setup_s is their
// undisturbed time (below) and the last set-up is the one measured.
constexpr size_t kSetups = 16;

// Rank-2 matcher with a capacity no run outgrows, so no N-doubling rebuild
// lands inside a timed segment.
inline pdmm::Config matcher_config() {
  pdmm::Config cfg;
  cfg.max_rank = 2;
  cfg.seed = kMatcherSeed;
  cfg.initial_capacity = 1ull << 22;
  return cfg;
}

// Workload ids (also mixed into the stream seed).
enum Workload : unsigned {
  kChurnSmall = 1u,
  kChurnWide = 2u,
  kDurableServe = 4u,
};

struct Args {
  std::string workload_name;
  Workload workload = kChurnSmall;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  // scratch files (journal, checkpoints, spans)
  std::string commit;    // source revision, as the launcher found it
};

// Linear-interpolated order statistic (p in [0, 100]); 0 for no samples.
double percentile(std::vector<double> xs, double p);
double mean(const std::vector<double>& xs);

// The typical value of a sample: the median of the shortest interval that
// holds half of it (the "shorth"). On a shared machine interference comes
// and goes within a run, slowing some windows (CPU steal) or speeding
// others up (an idle sibling hyperthread); the densest half ignores either
// kind as long as it touches fewer than half of the windows.
double typical(std::vector<double> xs);

// Timed figures are taken per window of consecutive samples and the run
// reports their typical value: this returns typical() across windows of
// each window's p-th percentile. A trailing partial window joins the one
// before it; a run shorter than two windows yields the plain percentile.
double window_typical(const std::vector<double>& xs, size_t window, double p);

// The cost of a repeated piece of work when the machine leaves it alone:
// the 10th percentile of its repeats. On a shared VM a thread runs up to
// ~45% slower while its vCPU's sibling hyperthread on the host is busy;
// that state flips every ~0.1 s, and its share of the time drifts over
// minutes, so a run's median depends on when the run happened. The fast
// state shows in every run, and the low decile measures it, while the
// slowest 90% of the repeats may be disturbed (README.md).
double undisturbed(const std::vector<double>& xs);

// Moves the calling thread over every CPU the process may use, in turn, so
// a run's repeats sample every vCPU, however the host treats each one. A
// disabled rotation has one slot and never pins. The destructor restores the thread's original affinity.
class CpuRotation {
 public:
  explicit CpuRotation(bool enabled);
  ~CpuRotation() { restore(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  size_t size() const { return cpus_.size(); }
  // Pins the calling thread to the CPU of slot `i % size()`.
  void pin(size_t i) const;
  // Gives the calling thread its original affinity back.
  void restore() const;

 private:
  cpu_set_t original_{};
  std::vector<int> cpus_;
};

// CPU seconds consumed so far, from the POSIX CPU-time clocks (nanosecond
// resolution): by the whole process and by the calling thread.
double process_cpu_s();
double this_thread_cpu_s();

// Process-wide CPU time (all threads) and context switches.
struct Usage {
  double cpu_s = 0;
  uint64_t ctx_switches = 0;
  static Usage now();
};
double peak_rss_mb();

// Everything one run reports. `e2e` and `layer` are keyed by the metric
// names of BENCHMARK.json; a run sets only the metrics it measured.
// `counts` are the deterministic counters a repeated run with the same
// seed must reproduce exactly.
class Report {
 public:
  void e2e(const std::string& name, double v);
  void layer(const std::string& name, double v);
  void count(const std::string& name, uint64_t v) { counts_[name] = v; }
  void note(const std::string& line) { notes_.push_back(line); }

  void attempt(uint64_t n = 1) { attempted_ += n; }
  // Records one failed operation; `why` is printed with the report.
  void fail(const std::string& why);
  // Checks `ok`, counting one attempted operation and failing it if false.
  bool check(bool ok, const std::string& why);

  // Prints the notes, the counts line and, as the last line of stdout, the
  // result object with the measured metrics of the run's table (end-to-end
  // with tracing off, per-layer with tracing on) as bare numbers.
  void print(const Args& args) const;

 private:
  std::map<std::string, double> e2e_, layer_;
  std::map<std::string, uint64_t> counts_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The traced run's span log: (name, start, end, parent, batch/epoch id),
// kept in memory, thread-safe to append to, written out once at the end.
class SpanLog {
 public:
  struct Span {
    const char* name = "";
    int64_t t0_ns = 0;
    int64_t t1_ns = 0;
    uint64_t id = 0;      // batch index (churn) or epoch (durable_serve)
    int64_t parent = -1;  // index into the log; -1 for a root span
  };

  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

  // Returns the new span's index (usable as a later span's parent).
  int64_t add(const char* name, Clock::time_point t0, Clock::time_point t1,
              uint64_t id, int64_t parent = -1);

  // Durations in microseconds of every span with this name.
  std::vector<double> durations_us(const char* name) const;
  // Sum over spans named `name` of duration minus the union of their
  // children's intervals.
  double self_time_us(const char* name) const;
  // Union length (us) of all spans named in `names`.
  double union_us(const std::vector<const char*>& names) const;
  size_t size() const;

  // One JSON object per line; false on I/O failure.
  bool write_jsonl(const std::string& path) const;

 private:
  Clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Prints the "# meta {...}" line: machine, build, source revision, run
// parameters. `extra` carries workload-specific entries (pool sizes,
// offered rate, journal filesystem).
void print_meta(const Args& args,
                const std::vector<std::pair<std::string, std::string>>& extra);

// Filesystem type name of the directory holding `path` (statfs magic).
std::string filesystem_type(const std::string& path);

int run_churn(const Args& args, Report& rep);
int run_durable(const Args& args, Report& rep);

}  // namespace perfbench
