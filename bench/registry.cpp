#include "registry.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <regex>
#include <thread>

#include "util/arg_parse.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/stats.h"

namespace pdmm::bench {

namespace {

std::vector<Benchmark>& registry() {
  static std::vector<Benchmark> benches;
  return benches;
}

std::string format_seconds(double s) {
  char buf[32];
  if (s >= 1.0) {
    std::snprintf(buf, sizeof buf, "%.3fs", s);
  } else if (s >= 1e-3) {
    std::snprintf(buf, sizeof buf, "%.2fms", s * 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.1fus", s * 1e6);
  }
  return buf;
}

std::string format_params(const Ctx::Params& params) {
  std::string out;
  for (const auto& [k, v] : params) {
    if (!out.empty()) out += ' ';
    out += k + '=' + v;
  }
  return out.empty() ? std::string("(single point)") : out;
}

const char* build_type() {
#ifdef NDEBUG
  return "release";
#else
  return "debug";
#endif
}

const char* build_os() {
#if defined(__linux__)
  return "linux";
#elif defined(__APPLE__)
  return "darwin";
#elif defined(_WIN32)
  return "windows";
#else
  return "unknown";
#endif
}

const char* build_arch() {
#if defined(__x86_64__) || defined(_M_X64)
  return "x86_64";
#elif defined(__aarch64__)
  return "aarch64";
#else
  return "unknown";
#endif
}

std::string utc_timestamp() {
  const std::time_t now =
      std::chrono::system_clock::to_time_t(std::chrono::system_clock::now());
  std::tm tm{};
  gmtime_r(&now, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

void write_json_report(
    std::ostream& out, const RunOptions& opt,
    const std::vector<std::pair<const Benchmark*, std::vector<SweepPoint>>>&
        runs) {
  JsonWriter j(out);
  j.begin_object();
  j.field("schema", "pdmm-bench-v1");
  j.key("meta");
  j.begin_object();
  j.field("timestamp_utc", utc_timestamp());
  j.field("compiler", __VERSION__);
  j.field("build_type", build_type());
  j.field("os", build_os());
  j.field("arch", build_arch());
  j.field("hardware_threads",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  j.field("reps", static_cast<uint64_t>(opt.reps));
  j.field("warmup", opt.warmup);
  j.field("threads", static_cast<uint64_t>(opt.threads));
  j.field("seed", opt.seed);
  j.field("smoke", opt.smoke);
  j.end_object();
  j.key("results");
  j.begin_array();
  for (const auto& [bench, points] : runs) {
    for (const SweepPoint& sp : points) {
      j.begin_object();
      j.field("bench", bench->name);
      j.field("experiment", bench->experiment);
      j.key("params");
      j.begin_object();
      for (const auto& [k, v] : sp.params) j.field(k, v);
      j.end_object();
      j.field("reps", static_cast<uint64_t>(sp.reps));
      j.key("seconds");
      j.begin_object();
      j.field("median", sp.seconds_median);
      j.field("min", sp.seconds_min);
      j.field("max", sp.seconds_max);
      j.end_object();
      j.field("work", sp.sample.work);
      j.field("rounds", sp.sample.rounds);
      j.field("updates", sp.sample.updates);
      j.field("max_batch_rounds", sp.sample.max_batch_rounds);
      j.field("updates_per_sec", sp.updates_per_sec);
      j.key("metrics");
      j.begin_object();
      for (const auto& [k, v] : sp.sample.metrics) j.field(k, v);
      j.end_object();
      j.end_object();
    }
  }
  j.end_array();
  j.end_object();
  out << '\n';
}

struct Cli {
  RunOptions opt;
  bool list = false;
  bool help = false;
  std::string match = ".*";
  std::string json_path;
};

// The global flags are fixed and default to the fields above; any other
// --key=value becomes a per-benchmark parameter override. A malformed or
// out-of-range global flag value exits 2 in ArgParse::rest(), a bad
// override value when a harness reads it (Ctx::u64), and an override no
// selected harness reads after the run.
Cli parse_cli(int argc, char** argv) {
  ArgParse args(argc, argv);
  Cli cli;
  RunOptions& opt = cli.opt;
  opt.reps = std::max<size_t>(1, args.get_u64("reps", opt.reps));
  opt.warmup = args.get_double("warmup", opt.warmup);
  opt.threads = args.get_u32("threads", opt.threads);
  opt.seed = args.get_u64("seed", opt.seed);
  opt.smoke = args.get_bool("smoke", opt.smoke);
  cli.json_path = args.get_string("json", cli.json_path);
  cli.list = args.get_bool("list", cli.list);
  cli.match = args.get_string("match", cli.match);
  cli.help = args.get_bool("help", cli.help);
  opt.overrides = args.rest();
  return cli;
}

void usage(const char* prog) {
  std::fprintf(
      stderr,
      "usage: %s [--reps=N] [--warmup=X] [--threads=T] [--seed=S]\n"
      "          [--smoke] [--json=PATH] [--list] [--match=REGEX]"
      " [--<param>=<value> ...]\n"
      "  --reps     repetitions per sweep point (default 3)\n"
      "  --warmup   scale factor on warm phases (default 1.0)\n"
      "  --threads  override every harness's thread count (default: keep)\n"
      "  --seed     remix all matcher/stream seeds (default: keep)\n"
      "  --smoke    tiny problem sizes; exercises every benchmark quickly\n"
      "  --json     write the pdmm-bench-v1 report to PATH; compare two\n"
      "             reports with tools/bench_compare.py\n"
      "  other --key=value flags override per-benchmark sweep parameters\n",
      prog);
}

int run_benchmarks(const Cli& cli, const std::vector<const Benchmark*>& subset) {
  std::vector<std::pair<const Benchmark*, std::vector<SweepPoint>>> runs;
  std::map<std::string, bool> consumed_by_any;
  for (const Benchmark* b : subset) {
    std::printf("=== %s (%s) ===\n# claim: %s\n", b->name, b->experiment,
                b->claim);
    Ctx ctx(*b, cli.opt);
    b->fn(ctx);
    for (const auto& k : ctx.consumed_overrides()) consumed_by_any[k] = true;
    runs.emplace_back(b, ctx.points());
    std::printf("\n");
    std::fflush(stdout);
  }
  // An override no selected benchmark consumed is probably a typo (of a
  // sweep parameter or of a global flag). The results above are still
  // valid and the JSON below is still written — but exit non-zero so
  // scripts and CI notice.
  bool dangling = false;
  for (const auto& [k, v] : cli.opt.overrides) {
    if (!consumed_by_any.count(k)) {
      std::fprintf(stderr,
                   "error: override --%s matched no sweep parameter of the "
                   "selected benchmarks\n",
                   k.c_str());
      dangling = true;
    }
  }
  if (!cli.json_path.empty()) {
    std::ofstream out(cli.json_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   cli.json_path.c_str());
      return 1;
    }
    write_json_report(out, cli.opt, runs);
    out.flush();
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", cli.json_path.c_str());
      return 1;
    }
    size_t total = 0;
    for (const auto& [bench, points] : runs) total += points.size();
    std::printf("# wrote %zu sweep points to %s\n", total,
                cli.json_path.c_str());
  }
  return dangling ? 2 : 0;
}

}  // namespace

void register_benchmark(const Benchmark& b) {
  registry().push_back(b);
}

const std::vector<Benchmark>& all_benchmarks() {
  auto& benches = registry();
  std::sort(benches.begin(), benches.end(),
            [](const Benchmark& a, const Benchmark& b) {
              return std::string_view(a.name) < std::string_view(b.name);
            });
  return benches;
}

// ---- Ctx ----

Ctx::Ctx(const Benchmark& bench, const RunOptions& opt)
    : bench_(bench), opt_(opt) {}

uint64_t Ctx::uint_param(const std::string& name, uint64_t full,
                         uint64_t smoke, unsigned bits) {
  const auto it = opt_.overrides.find(name);
  if (it == opt_.overrides.end()) return opt_.smoke ? smoke : full;
  consumed_[name] = true;
  uint64_t v = 0;
  const std::string error = ArgParse::parse_uint(name, it->second, bits, v);
  if (!error.empty()) {
    std::fprintf(stderr, "%s\n", error.c_str());
    std::exit(2);
  }
  return v;
}

uint64_t Ctx::u64(const std::string& name, uint64_t full, uint64_t smoke) {
  return uint_param(name, full, smoke, 64);
}

uint32_t Ctx::u32(const std::string& name, uint32_t full, uint32_t smoke) {
  return static_cast<uint32_t>(uint_param(name, full, smoke, 32));
}

unsigned Ctx::threads(unsigned def) const {
  return opt_.threads ? opt_.threads : def;
}

uint64_t Ctx::seed(uint64_t def) const {
  return opt_.seed ? hash_mix(opt_.seed, def) : def;
}

size_t Ctx::warm(size_t base) const {
  const double scaled = static_cast<double>(base) * opt_.warmup;
  return scaled <= 1.0 ? 1 : static_cast<size_t>(scaled);
}

SweepPoint Ctx::point(Params params, const std::function<Sample()>& body) {
  SweepPoint sp;
  sp.params = std::move(params);
  sp.reps = opt_.reps;
  std::vector<double> secs;
  secs.reserve(opt_.reps);
  bool deterministic = true;
  for (size_t rep = 0; rep < opt_.reps; ++rep) {
    Sample s = body();
    secs.push_back(s.seconds);
    if (rep > 0 &&
        (s.work != sp.sample.work || s.rounds != sp.sample.rounds ||
         s.updates != sp.sample.updates ||
         s.max_batch_rounds != sp.sample.max_batch_rounds)) {
      deterministic = false;
    }
    sp.sample = std::move(s);
  }
  const MinMedMax t = min_med_max(std::move(secs));
  sp.seconds_median = t.median;
  sp.seconds_min = t.min;
  sp.seconds_max = t.max;
  if (!deterministic) {
    std::fprintf(stderr,
                 "warning: %s [%s]: counters changed across repetitions — "
                 "determinism violated\n",
                 bench_.name, format_params(sp.params).c_str());
  }
  return finish_point(std::move(sp));
}

SweepPoint Ctx::record(Params params, Sample sample) {
  SweepPoint sp;
  sp.params = std::move(params);
  sp.sample = std::move(sample);
  sp.reps = 1;
  sp.seconds_median = sp.seconds_min = sp.seconds_max = sp.sample.seconds;
  return finish_point(std::move(sp));
}

SweepPoint Ctx::finish_point(SweepPoint sp) {
  if (sp.seconds_median > 0 && sp.sample.updates > 0) {
    sp.updates_per_sec =
        static_cast<double>(sp.sample.updates) / sp.seconds_median;
  }
  // One aligned text line per point; metrics carry the harness-specific
  // columns the old ASCII tables used to print.
  std::string line = "  " + format_params(sp.params);
  char buf[160];
  if (sp.seconds_median > 0) {
    std::snprintf(buf, sizeof buf, " | %zux %s [%s, %s]", sp.reps,
                  format_seconds(sp.seconds_median).c_str(),
                  format_seconds(sp.seconds_min).c_str(),
                  format_seconds(sp.seconds_max).c_str());
    line += buf;
  }
  if (sp.updates_per_sec > 0) {
    std::snprintf(buf, sizeof buf, " | %.3g upd/s", sp.updates_per_sec);
    line += buf;
  }
  for (const auto& [k, v] : sp.sample.metrics) {
    std::snprintf(buf, sizeof buf, " %s=%.4g", k.c_str(), v);
    line += buf;
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  points_.push_back(sp);
  return sp;
}

void Ctx::note(const std::string& text) {
  std::printf("  # %s\n", text.c_str());
}

std::vector<std::string> Ctx::consumed_overrides() const {
  std::vector<std::string> out;
  for (const auto& [k, v] : consumed_) {
    if (v) out.push_back(k);
  }
  return out;
}

// ---- the pdmm_bench command line ----

int bench_main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  if (cli.help) {
    usage(argv[0]);
    return 2;
  }
  const auto& benches = all_benchmarks();
  if (cli.list) {
    for (const Benchmark& b : benches) {
      std::printf("%-24s %-6s %s\n", b.name, b.experiment, b.claim);
    }
    return 0;
  }
  std::regex re;
  try {
    re = std::regex(cli.match);
  } catch (const std::regex_error&) {
    std::fprintf(stderr, "invalid --match regex: %s\n", cli.match.c_str());
    return 2;
  }
  std::vector<const Benchmark*> subset;
  for (const Benchmark& b : benches) {
    if (std::regex_search(b.name, re)) subset.push_back(&b);
  }
  if (subset.empty()) {
    std::fprintf(stderr, "no benchmark matches %s (try --list)\n",
                 cli.match.c_str());
    return 2;
  }
  return run_benchmarks(cli, subset);
}

}  // namespace pdmm::bench
