// E11: parallel dictionary micro-benchmarks. The [GMV91] interface
// promises O(k) work per batch of k operations; these sweeps confirm
// per-op cost stays flat as batch size grows. (Formerly a Google Benchmark
// suite; now registry-timed loops so the points land in BENCH_pdmm.json.)
#include "registry.h"

#include "dict/phase_dict.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"
#include "util/timer.h"

namespace pdmm::bench {
namespace {

std::vector<uint64_t> fresh_keys(size_t k, uint64_t salt) {
  std::vector<uint64_t> keys(k);
  for (size_t i = 0; i < k; ++i) keys[i] = hash_mix(salt, i) >> 1;
  return keys;
}

Sample make_sample(double seconds, size_t ops) {
  Sample s;
  s.seconds = seconds;
  s.updates = ops;
  s.work = ops;
  s.metrics = {{"ns_per_op", seconds * 1e9 / static_cast<double>(ops)}};
  return s;
}

void run(Ctx& ctx) {
  const uint64_t total_items = ctx.u64("items", 1 << 21, 1 << 15);
  const std::vector<size_t> ks =
      ctx.smoke() ? std::vector<size_t>{1 << 8, 1 << 10}
                  : std::vector<size_t>{1 << 8, 1 << 11, 1 << 14, 1 << 17};

  for (const size_t k : ks) {
    const size_t iters = std::max<size_t>(1, total_items / k);
    const size_t ops = k * iters;

    ctx.point({p("op", "batch_insert"), p("k", k)}, [&, k, iters, ops] {
      ThreadPool pool(ctx.threads(0));
      const std::vector<uint64_t> vals(k, 1);
      double secs = 0;
      for (size_t it = 0; it < iters; ++it) {
        PhaseDict<uint64_t> dict(k);  // setup excluded from timing
        const auto keys = fresh_keys(k, it + 1);
        Timer t;
        dict.batch_insert(pool, keys, vals);
        secs += t.seconds();
      }
      return make_sample(secs, ops);
    });

    ctx.point({p("op", "batch_lookup"), p("k", k)}, [&, k, iters, ops] {
      ThreadPool pool(ctx.threads(0));
      PhaseDict<uint64_t> dict(k);
      const auto keys = fresh_keys(k, 7);
      const std::vector<uint64_t> vals(k, 1);
      dict.batch_insert(pool, keys, vals);
      std::vector<uint64_t> out;
      Timer t;
      for (size_t it = 0; it < iters; ++it) {
        dict.batch_lookup(pool, keys, out, 0);
      }
      return make_sample(t.seconds(), ops);
    });

    ctx.point({p("op", "batch_erase"), p("k", k)}, [&, k, iters, ops] {
      ThreadPool pool(ctx.threads(0));
      const std::vector<uint64_t> vals(k, 1);
      double secs = 0;
      for (size_t it = 0; it < iters; ++it) {
        PhaseDict<uint64_t> dict(k);
        const auto keys = fresh_keys(k, 1000 + it);
        dict.batch_insert(pool, keys, vals);  // setup excluded from timing
        Timer t;
        dict.batch_erase(pool, keys);
        secs += t.seconds();
      }
      return make_sample(secs, ops);
    });

    ctx.point({p("op", "retrieve"), p("k", k)}, [&, k, iters, ops] {
      ThreadPool pool(ctx.threads(0));
      PhaseDict<uint64_t> dict(k);
      const auto keys = fresh_keys(k, 13);
      const std::vector<uint64_t> vals(k, 1);
      dict.batch_insert(pool, keys, vals);
      Timer t;
      size_t sink = 0;
      for (size_t it = 0; it < iters; ++it) {
        auto all = dict.retrieve(pool);
        sink += all.size();
      }
      Sample s = make_sample(t.seconds(), ops);
      s.metrics.push_back({"retrieved", static_cast<double>(sink / iters)});
      return s;
    });
  }

  ctx.point({p("op", "serial_find")}, [&] {
    ThreadPool pool(1);
    const size_t k = ctx.smoke() ? (1 << 10) : (1 << 16);
    const size_t iters = ctx.smoke() ? (1 << 16) : (1 << 22);
    PhaseDict<uint64_t> dict(k);
    const auto keys = fresh_keys(k, 17);
    const std::vector<uint64_t> vals(k, 1);
    dict.batch_insert(pool, keys, vals);
    uint64_t sink = 0;
    Timer t;
    for (size_t i = 0; i < iters; ++i) {
      sink += dict.find(keys[i & (k - 1)]) != nullptr;
    }
    Sample s = make_sample(t.seconds(), iters);
    s.metrics.push_back({"hits", static_cast<double>(sink)});
    return s;
  });

  ctx.note("[GMV91] promise: ns_per_op stays flat as k grows");
}

[[maybe_unused]] const Registrar registrar{
    "dict", "E11",
    "phase-concurrent dictionary: O(k) work per batch of k operations, "
    "per-op cost flat in batch size",
    run};

}  // namespace
}  // namespace pdmm::bench
