// The matcher-harness fixture: every harness in bench/ that runs a
// DynamicMatcher builds, drives and tallies it through this header.
// Harnesses register with bench/registry.h and report structured
// SweepPoints: the machine-independent counters the paper's theorems bound
// (parallel rounds, element work) plus wall-clock as context.
// docs/EXPERIMENTS.md ("How a harness is built") documents the policy and
// each harness's methodology.
#pragma once

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "registry.h"
#include "baselines/matcher_base.h"
#include "baselines/sequential_dynamic.h"
#include "core/matcher.h"
#include "util/timer.h"
#include "workload/generators.h"

namespace pdmm::bench {

// The bench Config: rank 2, the harness's seed remixed by --seed, and
// auto_rebuild off, so that no N-doubling rebuild lands in a timed
// segment. The standard capacity is one no harness's graph outgrows; E2,
// E3 and E4 size theirs to n (64n + 2^16), E22 uses 2^20 in a full run,
// and E14 sets its own to force a cascade of rebuilds.
inline Config bench_config(const Ctx& ctx, uint64_t seed, uint64_t capacity) {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = ctx.seed(seed);
  cfg.initial_capacity = capacity;
  cfg.auto_rebuild = false;
  return cfg;
}
inline Config bench_config(const Ctx& ctx, uint64_t seed) {
  return bench_config(ctx, seed, 1ull << (ctx.smoke() ? 15 : 22));
}

// The same policy for the sequential-dynamic baseline.
inline SequentialDynamicMatcher::Options sequential_options(
    const Config& cfg) {
  SequentialDynamicMatcher::Options opt;
  opt.max_rank = cfg.max_rank;
  opt.seed = cfg.seed;
  opt.initial_capacity = cfg.initial_capacity;
  opt.auto_rebuild = cfg.auto_rebuild;
  return opt;
}

// Refuses a stream shape its generator cannot serve (see ShapeError):
// exits 2 naming the harness parameter behind the field at fault. A
// harness checks every shape it will request before its first point, with
// the largest batch it asks for, so a refused run starts nothing.
inline void require(const Ctx& ctx, const ShapeError& e) {
  if (e) ctx.refuse(e.field, e.why);
}

// Adds one batch's counters to a segment's Sample.
inline void tally(Sample& s, const DynamicMatcher::BatchResult& res) {
  s.work += res.work;
  s.rounds += res.rounds;
  s.max_batch_rounds = std::max(s.max_batch_rounds, res.rounds);
}

// Applies one stream batch, its deletions resolved by endpoints, and adds
// its updates and counters to `s`.
inline void step(DynamicMatcher& m, const Batch& b, Sample& s) {
  s.updates += b.deletions.size() + b.insertions.size();
  tally(s, m.update_by_endpoints(b.deletions, b.insertions));
}

// A timed segment's batches, drawn from an oblivious stream before the
// clock starts, so the segment's seconds are the matcher's alone.
template <typename Stream>
std::vector<Batch> take(Stream& stream, size_t batches, size_t batch_size) {
  std::vector<Batch> out;
  out.reserve(batches);
  for (size_t i = 0; i < batches; ++i) out.push_back(stream.next(batch_size));
  return out;
}

// The timed segment: the batches applied in order.
inline Sample drive(DynamicMatcher& m, const std::vector<Batch>& batches) {
  Sample s;
  Timer t;
  for (const Batch& b : batches) step(m, b, s);
  s.seconds = t.seconds();
  return s;
}
template <typename Stream>
Sample drive(DynamicMatcher& m, Stream& stream, size_t batches,
             size_t batch_size) {
  return drive(m, take(stream, batches, batch_size));
}

// drive() over the MatcherBase interface (baseline comparisons). The
// interface reports cumulative counters only, so max_batch_rounds stays 0.
template <typename Stream>
Sample drive_base(MatcherBase& m, Stream& stream, size_t batches,
                  size_t batch_size) {
  const std::vector<Batch> segment = take(stream, batches, batch_size);
  Sample s;
  const auto before = m.total_cost();
  Timer t;
  for (const Batch& b : segment) {
    s.updates += b.deletions.size() + b.insertions.size();
    apply_batch(m, b);
  }
  s.seconds = t.seconds();
  const auto after = m.total_cost();
  s.work = after.work - before.work;
  s.rounds = after.rounds - before.rounds;
  return s;
}

// Warms a stream and a matcher to steady state: at least `updates`
// updates in batches of `batch_size`, untimed and untallied.
template <typename Stream>
void warm(DynamicMatcher& m, Stream& stream, size_t updates,
          size_t batch_size) {
  for (size_t done = 0; done < updates;) {
    const Batch b = stream.next(batch_size);
    done += b.deletions.size() + b.insertions.size();
    m.update_by_endpoints(b.deletions, b.insertions);
  }
}

// warm() over the MatcherBase interface (baseline comparisons).
template <typename Stream>
void warm_base(MatcherBase& m, Stream& stream, size_t updates,
               size_t batch_size) {
  for (size_t done = 0; done < updates;) {
    const Batch b = stream.next(batch_size);
    done += b.deletions.size() + b.insertions.size();
    apply_batch(m, b);
  }
}

// <tmp>/pdmm_bench_<harness>.<pid>: the base of a harness's temp files
// (or its temp directory), unique per run. Harnesses remove what they
// write.
inline std::string run_path(const Ctx& ctx) {
  return (std::filesystem::temp_directory_path() /
          ("pdmm_bench_" + std::string(ctx.bench().name) + "." +
           std::to_string(::getpid())))
      .string();
}

// x / updates with a zero-updates guard (metric helpers).
inline double per_update(uint64_t x, uint64_t updates) {
  return static_cast<double>(x) /
         static_cast<double>(updates > 0 ? updates : 1);
}

inline double per_batch(uint64_t x, size_t batches) {
  return static_cast<double>(x) / static_cast<double>(batches > 0 ? batches : 1);
}

// Microseconds per update of a timed segment.
inline double us_per_update(double seconds, uint64_t updates) {
  return seconds * 1e6 / static_cast<double>(updates > 0 ? updates : 1);
}

}  // namespace pdmm::bench
