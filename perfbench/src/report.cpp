#include "report.h"

#include <pthread.h>
#include <sys/resource.h>
#include <sys/statfs.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <thread>

namespace perfbench {

namespace {

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t b = colon + 1;
        while (b < line.size() && line[b] == ' ') ++b;
        return line.substr(b);
      }
    }
  }
  return "unknown";
}

}  // namespace

double percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  const double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double typical(std::vector<double> xs) {
  if (xs.size() < 3) return percentile(xs, 50);
  std::sort(xs.begin(), xs.end());
  const size_t h = (xs.size() + 1) / 2;
  size_t best = 0;
  for (size_t i = 1; i + h <= xs.size(); ++i) {
    if (xs[i + h - 1] - xs[i] < xs[best + h - 1] - xs[best]) best = i;
  }
  return percentile(std::vector<double>(xs.begin() + static_cast<std::ptrdiff_t>(best),
                                        xs.begin() + static_cast<std::ptrdiff_t>(best + h)),
                    50);
}

double window_typical(const std::vector<double>& xs, size_t window, double p) {
  const size_t windows = window ? xs.size() / window : 0;
  if (windows < 2) return percentile(xs, p);
  std::vector<double> per_window;
  for (size_t w = 0; w < windows; ++w) {
    const auto b = xs.begin() + static_cast<std::ptrdiff_t>(w * window);
    const auto e = w + 1 == windows ? xs.end()
                                    : b + static_cast<std::ptrdiff_t>(window);
    per_window.push_back(percentile(std::vector<double>(b, e), p));
  }
  return typical(std::move(per_window));
}

double undisturbed(const std::vector<double>& xs) { return percentile(xs, 10); }

CpuRotation::CpuRotation(bool enabled) {
  CPU_ZERO(&original_);
  if (enabled && pthread_getaffinity_np(pthread_self(), sizeof original_,
                                        &original_) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &original_)) cpus_.push_back(c);
    }
  }
  if (cpus_.empty()) cpus_.push_back(-1);  // disabled or unknown: never pin
}

void CpuRotation::restore() const {
  if (cpus_.front() >= 0) {
    pthread_setaffinity_np(pthread_self(), sizeof original_, &original_);
  }
}

void CpuRotation::pin(size_t i) const {
  const int cpu = cpus_[i % cpus_.size()];
  if (cpu < 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  pthread_setaffinity_np(pthread_self(), sizeof one, &one);
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  double s = 0;
  for (double x : xs) s += x;
  return s / static_cast<double>(xs.size());
}

namespace {

double clock_s(clockid_t id) {
  timespec ts{};
  if (clock_gettime(id, &ts) != 0) return 0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double this_thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

Usage Usage::now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = process_cpu_s();
  u.ctx_switches = static_cast<uint64_t>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void Report::e2e(const std::string& name, double v) { e2e_[name] = v; }
void Report::layer(const std::string& name, double v) { layer_[name] = v; }

void Report::fail(const std::string& why) {
  ++failed_;
  failures_.push_back(why);
}

bool Report::check(bool ok, const std::string& why) {
  ++attempted_;
  if (!ok) fail(why);
  return ok;
}

void Report::print(const Args& args) const {
  for (const std::string& n : notes_) std::printf("# %s\n", n.c_str());
  for (const std::string& f : failures_) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  std::string counts = "# counts {";
  bool first = true;
  for (const auto& [k, v] : counts_) {
    counts += (first ? "" : ", ") + json_str(k) + ": " + std::to_string(v);
    first = false;
  }
  std::printf("%s}\n", counts.c_str());
  std::printf("# failed_frac %s (%llu of %llu operations)\n",
              fmt_num(attempted_ ? static_cast<double>(failed_) /
                                       static_cast<double>(attempted_)
                                 : 0)
                  .c_str(),
              static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  // Human-readable copies of the other table's measured values.
  for (const auto& [k, v] : args.trace ? e2e_ : layer_) {
    std::printf("# %s = %s\n", k.c_str(), fmt_num(v).c_str());
  }
  std::string metrics;
  for (const auto& [k, v] : args.trace ? layer_ : e2e_) {
    metrics += (metrics.empty() ? "" : ", ") + json_str(k) + ": " + fmt_num(v);
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {%s}}\n",
      failed_ == 0 ? "true" : "false",
      static_cast<unsigned long long>(std::max<uint64_t>(attempted_, 1)),
      static_cast<unsigned long long>(failed_), metrics.c_str());
  std::fflush(stdout);
}

int64_t SpanLog::add(const char* name, Clock::time_point t0,
                     Clock::time_point t1, uint64_t id, int64_t parent) {
  Span s;
  s.name = name;
  s.t0_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t0 - origin_)
                .count();
  s.t1_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - origin_)
                .count();
  s.id = id;
  s.parent = parent;
  std::lock_guard<std::mutex> lk(mu_);
  spans_.push_back(s);
  return static_cast<int64_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations_us(const char* name) const {
  const std::string_view want(name);
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (want == s.name) out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-3);
  }
  return out;
}

namespace {

// Total length of the union of [t0, t1) intervals.
double union_len_ns(std::vector<std::pair<int64_t, int64_t>> iv) {
  std::sort(iv.begin(), iv.end());
  double total = 0;
  int64_t cur0 = 0, cur1 = 0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (!open || a > cur1) {
      if (open) total += static_cast<double>(cur1 - cur0);
      cur0 = a;
      cur1 = b;
      open = true;
    } else {
      cur1 = std::max(cur1, b);
    }
  }
  if (open) total += static_cast<double>(cur1 - cur0);
  return total;
}

}  // namespace

double SpanLog::self_time_us(const char* name) const {
  const std::string_view want(name);
  std::lock_guard<std::mutex> lk(mu_);
  std::map<int64_t, std::vector<std::pair<int64_t, int64_t>>> children;
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.t0_ns, s.t1_ns});
  }
  double total_ns = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (want != s.name) continue;
    total_ns += static_cast<double>(s.t1_ns - s.t0_ns);
    const auto it = children.find(static_cast<int64_t>(i));
    if (it == children.end()) continue;
    // Children are clipped to the parent: a child that outlives its parent
    // (cross-thread handoff) only covers the overlapping part.
    std::vector<std::pair<int64_t, int64_t>> clipped;
    for (auto [a, b] : it->second) {
      a = std::max(a, s.t0_ns);
      b = std::min(b, s.t1_ns);
      if (a < b) clipped.push_back({a, b});
    }
    total_ns -= union_len_ns(std::move(clipped));
  }
  return total_ns * 1e-3;
}

double SpanLog::union_us(const std::vector<const char*>& names) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<int64_t, int64_t>> iv;
  for (const Span& s : spans_) {
    for (const char* n : names) {
      if (std::string_view(n) == s.name) {
        iv.push_back({s.t0_ns, s.t1_ns});
        break;
      }
    }
  }
  return union_len_ns(std::move(iv)) * 1e-3;
}

size_t SpanLog::size() const {
  std::lock_guard<std::mutex> lk(mu_);
  return spans_.size();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lk(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\": " << i << ", \"name\": " << json_str(s.name)
        << ", \"start_ns\": " << s.t0_ns << ", \"end_ns\": " << s.t1_ns
        << ", \"parent\": " << s.parent << ", \"id\": " << s.id << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

std::string filesystem_type(const std::string& path) {
  struct statfs sf {};
  if (statfs(path.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<unsigned long>(sf.f_type)) {
    case 0xEF53: return "ext4";
    case 0x01021994: return "tmpfs";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    case 0x6969: return "nfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "0x%lx",
                    static_cast<unsigned long>(sf.f_type));
      return buf;
    }
  }
}

void print_meta(const Args& args,
                const std::vector<std::pair<std::string, std::string>>& extra) {
  std::vector<std::pair<std::string, std::string>> kv = {
      {"workload", args.workload_name},
      {"seed", std::to_string(args.seed)},
      {"seconds", fmt_num(args.seconds)},
      {"trace", args.trace ? "1" : "0"},
      {"cpu_model", cpu_model()},
      {"nproc", std::to_string(std::thread::hardware_concurrency())},
      {"compiler", PERFBENCH_COMPILER},
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"commit", args.commit.empty() ? "unknown" : args.commit},
  };
  kv.insert(kv.end(), extra.begin(), extra.end());
  std::string line = "# meta {";
  for (size_t i = 0; i < kv.size(); ++i) {
    line += (i ? ", " : "") + json_str(kv[i].first) + ": " +
            json_str(kv[i].second);
  }
  std::printf("%s}\n", line.c_str());
}

}  // namespace perfbench
