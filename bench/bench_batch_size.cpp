// E4: batch processing beats update-at-a-time processing in depth.
// pdmm handles a batch of k updates in polylog rounds; the sequential
// dynamic baseline's dependency chain grows ~linearly in k (its rounds are
// its operations). The quantity compared is depth per *batch*; work per
// update stays comparable (both polylog).
#include "bench_common.h"
#include "baselines/sequential_dynamic.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t max_k = ctx.u64("max_k", 1 << 12, 1 << 6);
  const uint64_t batches = ctx.u64("batches", 20, 4);
  const size_t warm_updates = ctx.warm(4ull * n);

  SlidingWindowStream::Options so;
  so.n = n;
  so.window = 2ull * n;
  so.seed = ctx.seed(5);

  for (size_t k = 1; k <= max_k; k *= 4) {
    ctx.point({p("k", k)}, [&] {
      // pdmm
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(11);
      cfg.initial_capacity = 64ull * n + (1ull << 16);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);
      SlidingWindowStream stream(so);
      warm(m, stream, warm_updates, 1024);
      const DriveResult rp = drive(m, stream, batches, k);

      // sequential baseline over an identical stream state
      SequentialDynamicMatcher::Options sopt;
      sopt.max_rank = 2;
      sopt.seed = ctx.seed(12);
      sopt.initial_capacity = 64ull * n + (1ull << 16);
      sopt.auto_rebuild = false;
      SequentialDynamicMatcher seq(sopt);
      SlidingWindowStream stream2(so);
      warm_base(seq, stream2, warm_updates, 1024);
      const DriveResult rs = drive_base(seq, stream2, batches, k);

      const double pdmm_rounds = per_batch(rp.rounds, batches);
      const double seq_rounds = per_batch(rs.rounds, batches);
      Sample s = to_sample(rp);
      s.metrics = {
          {"pdmm_rounds_per_batch", pdmm_rounds},
          {"pdmm_work_per_update", per_update(rp.work, rp.updates)},
          {"seq_depth_per_batch", seq_rounds},
          {"seq_work_per_update", per_update(rs.work, rs.updates)},
          {"depth_ratio", seq_rounds / std::max(pdmm_rounds, 1.0)}};
      return s;
    });
  }
  ctx.note(
      "expectation: pdmm rounds/batch grows sublinearly and saturates at "
      "its polylog ceiling; seq depth/batch grows ~linearly in k, so the "
      "depth ratio keeps widening");
}

[[maybe_unused]] const Registrar registrar{
    "batch_size", "E4",
    "pdmm: polylog depth per batch regardless of k; sequential baseline: "
    "depth ~ Theta(k) per batch (rounds == operations for it)",
    run};

}  // namespace
}  // namespace pdmm::bench
