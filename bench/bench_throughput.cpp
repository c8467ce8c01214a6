// E5: pdmm against all three baselines on one churn stream.
// Work per update: pdmm and the sequential-dynamic baseline stay polylog;
// greedy-repair degrades with degree; static-recompute pays Theta(M r)
// per *batch*, so it loses badly at small batches and only catches up when
// the batch size approaches the live graph size (the crossover point).
#include "bench_common.h"
#include "baselines/greedy_dynamic.h"
#include "baselines/pdmm_adapter.h"
#include "baselines/sequential_dynamic.h"
#include "baselines/static_recompute.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 2ull * n, 2ull * n);
  const uint64_t batches = ctx.u64("batches", 30, 4);
  const size_t warm_updates = ctx.warm(3 * target);

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = target;
  so.seed = ctx.seed(21);

  const std::vector<size_t> ks = ctx.smoke()
                                     ? std::vector<size_t>{16, 128}
                                     : std::vector<size_t>{16, 256, 4096};

  auto measure = [&](MatcherBase& m, size_t k) {
    ChurnStream stream(so);
    warm_base(m, stream, warm_updates, 1024);
    const DriveResult r = drive_base(m, stream, batches, k);
    Sample s = to_sample(r);
    s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                 {"us_per_update", us_per_update(r.seconds, r.updates)},
                 {"matching", static_cast<double>(m.matching_size())}};
    return s;
  };

  for (const size_t k : ks) {
    ctx.point({p("impl", "pdmm"), p("k", k)}, [&] {
      ThreadPool pool(ctx.threads(0));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(31);
      cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      cfg.auto_rebuild = false;
      PdmmAdapter m(cfg, pool);
      return measure(m, k);
    });
    ctx.point({p("impl", "sequential"), p("k", k)}, [&] {
      SequentialDynamicMatcher::Options opt;
      opt.seed = ctx.seed(32);
      opt.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      opt.auto_rebuild = false;
      SequentialDynamicMatcher m(opt);
      return measure(m, k);
    });
    ctx.point({p("impl", "greedy"), p("k", k)}, [&] {
      GreedyDynamicMatcher m(2);
      return measure(m, k);
    });
    ctx.point({p("impl", "static"), p("k", k)}, [&] {
      ThreadPool pool(ctx.threads(0));
      StaticRecomputeMatcher m(2, ctx.seed(33), pool);
      return measure(m, k);
    });
  }
  ctx.note(
      "crossover: static-recompute's work/update falls ~1/k; it becomes "
      "competitive once k is a constant fraction of M");
}

[[maybe_unused]] const Registrar registrar{
    "throughput", "E5",
    "work/update: pdmm ~ sequential-dynamic (both polylog); static-recompute "
    "pays Theta(Mr)/batch; greedy pays Theta(degree) on matched deletions",
    run};

}  // namespace
}  // namespace pdmm::bench
