// E9 (Theorem 1.1): generalization to hypergraphs of rank r costs a
// poly(r) factor in work while depth stays polylog. Measured: work/update
// and rounds/batch as r grows on otherwise-identical churn workloads.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t updates_per_point = ctx.u64("updates", 1 << 15, 1 << 11);
  const uint64_t max_rank = ctx.u64("max_rank", 8, 4);

  for (uint32_t r = 2; r <= max_rank; ++r) {
    ctx.point({p("r", static_cast<uint64_t>(r))}, [&, r] {
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = r;
      cfg.seed = ctx.seed(61);
      cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);

      ChurnStream::Options so;
      so.n = n;
      so.rank = r;
      so.target_edges = 2ull * n;
      so.seed = ctx.seed(29);
      ChurnStream stream(so);
      warm(m, stream, ctx.warm(3 * so.target_edges), 1024);

      const size_t batch = 256;
      const size_t batches = updates_per_point / batch;
      const DriveResult res = drive(m, stream, batches, batch);
      const double wpu = per_update(res.work, res.updates);
      Sample s = to_sample(res);
      s.metrics = {
          {"alpha", static_cast<double>(m.scheme().alpha())},
          {"L", static_cast<double>(m.scheme().top_level())},
          {"work_per_update", wpu},
          {"work_per_update_per_r3",
           wpu / (static_cast<double>(r) * r * r)},
          {"rounds_per_batch", per_batch(res.rounds, batches)},
          {"us_per_update", us_per_update(res.seconds, res.updates)}};
      return s;
    });
  }
  ctx.note(
      "alpha = 4r raises L's base, so L shrinks as r grows; "
      "work_per_update_per_r3 staying bounded is the poly(r) check");
}

[[maybe_unused]] const Registrar registrar{
    "rank_scaling", "E9",
    "work/update grows poly(r); rounds/batch stays polylog (Theorem 1.1)",
    run};

}  // namespace
}  // namespace pdmm::bench
