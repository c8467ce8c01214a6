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
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t window = ctx.u64("window", 2ull * n, 2ull * n);
  const uint64_t batches = ctx.u64("batches", 60, 6);

  WindowChurnStream::Options so;
  so.n = n;
  so.window = window;
  so.seed = ctx.seed(67);
  require(ctx, WindowChurnStream::check(so, 1024));

  for (const double churn : {0.0, 0.25, 0.5}) {
    ctx.point({p("churn", churn)}, [&, churn] {
      ThreadPool pool(ctx.threads(1));
      DynamicMatcher m(bench_config(ctx, 111), pool);

      WindowChurnStream::Options opts = so;
      opts.churn = churn;
      WindowChurnStream stream(opts);
      warm(m, stream, ctx.warm(2 * window), 1024);

      Sample s = drive(m, stream, batches, 512);
      s.metrics = {{"work_per_update", per_update(s.work, s.updates)},
                   {"rounds_per_batch", per_batch(s.rounds, batches)},
                   {"us_per_update", us_per_update(s.seconds, s.updates)},
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
