// S1 (scenario): sliding-window churn. WindowChurnStream mixes strict-FIFO
// evictions with random-age deletions, so edge lifetimes span short and
// long — the realistic temporal-graph regime between ChurnStream (no
// temporal order) and SlidingWindowStream (pure FIFO). Sweeping the churn
// fraction shows how sensitive pdmm's amortized work is to lifetime mixing;
// churn=0 degenerates to the classic sliding window as the baseline.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t n = ctx.u64("n", 1 << 13, 1 << 9);
  const uint64_t window = ctx.u64("window", 2 * n, 2 * n);
  const uint64_t batches = ctx.u64("batches", 60, 6);

  for (const double churn : {0.0, 0.25, 0.5}) {
    ctx.point({p("churn", churn)}, [&, churn] {
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(111);
      cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);

      WindowChurnStream::Options so;
      so.n = static_cast<Vertex>(n);
      so.window = window;
      so.churn = churn;
      so.seed = ctx.seed(67);
      WindowChurnStream stream(so);
      warm(m, stream, ctx.warm(2 * window), 1024);

      const DriveResult r = drive(m, stream, batches, 512);
      Sample s = to_sample(r);
      s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                   {"rounds_per_batch", per_batch(r.rounds, batches)},
                   {"us_per_update", us_per_update(r.seconds, r.updates)},
                   {"matching", static_cast<double>(m.matching_size())},
                   {"settles", static_cast<double>(m.stats().settles)}};
      return s;
    });
  }
  ctx.note("churn=0 is the pure sliding window; rising churn mixes edge "
           "lifetimes and should shift work between levels, not blow it up");
}

[[maybe_unused]] const Registrar registrar{
    "scenario_window_churn", "S1",
    "sliding-window churn: random-age deletions on top of FIFO eviction "
    "keep amortized work polylog across lifetime mixes",
    run};

}  // namespace
}  // namespace pdmm::bench
