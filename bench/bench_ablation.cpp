// E15 (ablation): the design knobs DESIGN.md calls out.
//  * eager vs lazy settling (settle_after_insertions): eager restores
//    Invariant 3.5(2) after every batch at extra per-batch cost; lazy
//    defers that work to the next deletion sweep (paper-exact).
//  * subsettle_iter_factor: iterations per marking phase; fewer iterations
//    risk extra subsettle repeats, more iterations waste marking rounds.
// Output: work/update and rounds/batch per configuration on one stream.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t batches = ctx.u64("batches", 60, 6);

  struct Knobs {
    bool eager;
    uint32_t iter_factor;
  };
  const std::vector<Knobs> configs = {
      {true, 2}, {false, 2}, {true, 1}, {true, 4}, {false, 1}};

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = 3 * static_cast<size_t>(n);
  so.zipf_s = 0.7;  // skew creates rising work for settle machinery
  so.seed = ctx.seed(55);
  require(ctx, ChurnStream::check(so, 1024));

  for (const Knobs knobs : configs) {
    ctx.point(
        {p("settling", knobs.eager ? "eager" : "lazy"),
         p("iter_factor", static_cast<uint64_t>(knobs.iter_factor))},
        [&] {
          ThreadPool pool(ctx.threads(1));
          Config cfg = bench_config(ctx, 123);
          cfg.settle_after_insertions = knobs.eager;
          cfg.subsettle_iter_factor = knobs.iter_factor;
          DynamicMatcher m(cfg, pool);

          ChurnStream stream(so);
          warm(m, stream, ctx.warm(3 * so.target_edges), 1024);

          Sample s = drive(m, stream, batches, 256);
          const auto& st = m.stats();
          s.metrics = {
              {"work_per_update", per_update(s.work, s.updates)},
              {"rounds_per_batch", per_batch(s.rounds, batches)},
              {"settles", static_cast<double>(st.settles)},
              {"subsubsettles", static_cast<double>(st.subsubsettles)},
              {"temp_deleted", static_cast<double>(st.temp_deleted)},
              {"settle_fallbacks", static_cast<double>(st.settle_fallbacks)}};
          return s;
        });
  }
  ctx.note(
      "expectation: lazy shifts rounds from insert-heavy batches to the "
      "next deletion sweep (similar totals); iter_factor=1 may show extra "
      "subsettle repeats, iter_factor=4 inflates rounds/batch");
}

[[maybe_unused]] const Registrar registrar{
    "ablation", "E15",
    "design-knob ablations: eager/lazy settling, subsettle iteration factor",
    run};

}  // namespace
}  // namespace pdmm::bench
