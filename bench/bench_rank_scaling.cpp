// E9 (Theorem 1.1): generalization to hypergraphs of rank r costs a
// poly(r) factor in work while depth stays polylog. Measured: work/update
// and rounds/batch as r grows on otherwise-identical churn workloads.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t updates_per_point = ctx.u64("updates", 1 << 15, 1 << 11);
  // A rank is kept in 32 bits; the loop runs in 64 so that ++r cannot wrap
  // past a max_rank of 2^32 - 1.
  const uint64_t max_rank = ctx.u32("max_rank", 8, 4);

  const auto shape = [&](uint64_t r) {
    ChurnStream::Options so;
    so.n = n;
    so.rank = static_cast<uint32_t>(r);
    so.target_edges = 2ull * n;
    so.seed = ctx.seed(29);
    return so;
  };
  // Every point runs the same shape but for its rank, and C(n, r) is
  // unimodal in r, so the two ends of the sweep bound every rank between.
  if (max_rank >= 2) {
    require(ctx, ChurnStream::check(shape(2), 1024));
    require(ctx, ChurnStream::check(shape(max_rank), 1024));
  }

  for (uint64_t r = 2; r <= max_rank; ++r) {
    ctx.point({p("r", r)}, [&, r] {
      ThreadPool pool(ctx.threads(1));
      Config cfg = bench_config(ctx, 61);
      cfg.max_rank = static_cast<uint32_t>(r);
      DynamicMatcher m(cfg, pool);

      const ChurnStream::Options so = shape(r);
      ChurnStream stream(so);
      warm(m, stream, ctx.warm(3 * so.target_edges), 1024);

      const size_t batch = 256;
      const size_t batches = updates_per_point / batch;
      Sample s = drive(m, stream, batches, batch);
      const double wpu = per_update(s.work, s.updates);
      s.metrics = {
          {"alpha", static_cast<double>(m.scheme().alpha())},
          {"L", static_cast<double>(m.scheme().top_level())},
          {"work_per_update", wpu},
          {"work_per_update_per_r3",
           wpu / (static_cast<double>(r) * r * r)},
          {"rounds_per_batch", per_batch(s.rounds, batches)},
          {"us_per_update", us_per_update(s.seconds, s.updates)}};
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
