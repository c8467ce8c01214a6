// E12: runtime primitive micro-benchmarks: parallel_for, scan, pack, sort
// throughput across thread counts. (Formerly a Google Benchmark suite; now
// registry-timed loops so the points land in BENCH_pdmm.json.)
#include <numeric>

#include "registry.h"

#include "parallel/pack.h"
#include "parallel/parallel_for.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pdmm::bench {
namespace {

Sample make_sample(double seconds, size_t items) {
  Sample s;
  s.seconds = seconds;
  s.updates = items;
  s.work = items;
  s.metrics = {{"ns_per_item", seconds * 1e9 / static_cast<double>(items)}};
  return s;
}

void run(Ctx& ctx) {
  const size_t n =
      static_cast<size_t>(ctx.u64("n", 1 << 20, 1 << 16));
  const size_t iters = ctx.u64("iters", 8, 2);
  const std::vector<unsigned> thread_counts =
      ctx.smoke() ? std::vector<unsigned>{1, 2}
                  : std::vector<unsigned>{1, 2, 4, 8};

  for (const unsigned threads : thread_counts) {
    ctx.point({p("primitive", "parallel_for"),
               p("threads", static_cast<uint64_t>(threads))},
              [&, threads] {
                ThreadPool pool(threads);
                std::vector<uint64_t> data(n, 1);
                Timer t;
                for (size_t it = 0; it < iters; ++it) {
                  parallel_for(pool, n,
                               [&](size_t i) { data[i] = data[i] * 3 + 1; });
                }
                return make_sample(t.seconds(), n * iters);
              });

    ctx.point({p("primitive", "scan"),
               p("threads", static_cast<uint64_t>(threads))},
              [&, threads] {
                ThreadPool pool(threads);
                std::vector<uint64_t> in(n, 2), out;
                uint64_t sink = 0;
                Timer t;
                for (size_t it = 0; it < iters; ++it) {
                  sink += scan_exclusive(pool, in, out);
                }
                Sample s = make_sample(t.seconds(), n * iters);
                s.metrics.push_back(
                    {"checksum", static_cast<double>(sink % 1024)});
                return s;
              });

    ctx.point({p("primitive", "pack"),
               p("threads", static_cast<uint64_t>(threads))},
              [&, threads] {
                ThreadPool pool(threads);
                std::vector<uint32_t> vals(n);
                std::iota(vals.begin(), vals.end(), 0u);
                size_t sink = 0;
                Timer t;
                for (size_t it = 0; it < iters; ++it) {
                  auto out = pack_values(
                      pool, vals, [&](size_t i) { return (vals[i] & 7) == 0; });
                  sink += out.size();
                }
                Sample s = make_sample(t.seconds(), n * iters);
                s.metrics.push_back(
                    {"kept_fraction",
                     static_cast<double>(sink / iters) /
                         static_cast<double>(n)});
                return s;
              });

    ctx.point({p("primitive", "sort"),
               p("threads", static_cast<uint64_t>(threads))},
              [&, threads] {
                ThreadPool pool(threads);
                const size_t sn = n / 2;
                Xoshiro256 rng(3);
                std::vector<uint64_t> base(sn);
                for (auto& x : base) x = rng();
                double secs = 0;
                for (size_t it = 0; it < iters; ++it) {
                  std::vector<uint64_t> v = base;  // copy excluded from timing
                  Timer t;
                  parallel_sort(pool, v);
                  secs += t.seconds();
                }
                return make_sample(secs, sn * iters);
              });
  }
  ctx.note("expectation: ns_per_item falls with threads until memory "
           "bandwidth saturates; single-thread points are the baselines");
}

[[maybe_unused]] const Registrar registrar{
    "parallel", "E12",
    "runtime primitives (parallel_for / scan / pack / sort): throughput "
    "scales with cores",
    run};

}  // namespace
}  // namespace pdmm::bench
