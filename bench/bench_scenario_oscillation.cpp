// S3 (scenario): adversarial delete-reinsert oscillation. OscillationStream
// flaps a fixed core edge set every other batch — oblivious (the pattern is
// fixed up front), yet a worst case for epoch longevity: matched epochs on
// core endpoints keep dying young, and settles re-run over the same
// neighbourhoods. Sweeping the core size relative to the background shows
// how the amortization absorbs maximum-churn hot spots; the sequential
// baseline runs the same stream for contrast.
#include "bench_common.h"
#include "baselines/sequential_dynamic.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t n = ctx.u64("n", 1 << 13, 1 << 9);
  const uint64_t background = ctx.u64("background_edges", 2 * n, 2 * n);
  const uint64_t cycles = ctx.u64("cycles", 30, 4);

  for (const uint64_t core_shift : {3u, 1u}) {  // core = background >> shift
    const uint64_t core = background >> core_shift;
    // One oscillation cycle = delete the whole core + reinsert it.
    const size_t batch = 512;
    const size_t batches_per_cycle = 2 * ((core + batch - 1) / batch);
    const size_t batches =
        static_cast<size_t>(cycles) * batches_per_cycle;

    OscillationStream::Options so;
    so.n = static_cast<Vertex>(n);
    so.core_edges = core;
    so.background_edges = background;

    ctx.point({p("impl", "pdmm"), p("core_edges", core)}, [&] {
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(151);
      cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);
      auto opts = so;
      opts.seed = ctx.seed(83);
      OscillationStream stream(opts);
      warm(m, stream, background + core, batch);  // the build phase
      const DriveResult r = drive(m, stream, batches, batch);
      const auto& st = m.stats();
      Sample s = to_sample(r);
      s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                   {"rounds_per_batch", per_batch(r.rounds, batches)},
                   {"us_per_update", us_per_update(r.seconds, r.updates)},
                   {"settles", static_cast<double>(st.settles)},
                   {"temp_deleted", static_cast<double>(st.temp_deleted)},
                   {"matching", static_cast<double>(m.matching_size())}};
      return s;
    });

    ctx.point({p("impl", "sequential"), p("core_edges", core)}, [&] {
      SequentialDynamicMatcher::Options opt;
      opt.seed = ctx.seed(152);
      opt.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      opt.auto_rebuild = false;
      SequentialDynamicMatcher m(opt);
      auto opts = so;
      opts.seed = ctx.seed(83);
      OscillationStream stream(opts);
      warm_base(m, stream, background + core, batch);
      const DriveResult r = drive_base(m, stream, batches, batch);
      Sample s = to_sample(r);
      s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                   {"rounds_per_batch", per_batch(r.rounds, batches)},
                   {"us_per_update", us_per_update(r.seconds, r.updates)},
                   {"matching", static_cast<double>(m.matching_size())}};
      return s;
    });
  }
  ctx.note("the same edges flap every cycle: per-update work is higher "
           "than uniform churn but must stay bounded (oblivious pattern, "
           "so the paper's amortization still applies)");
}

[[maybe_unused]] const Registrar registrar{
    "scenario_oscillation", "S3",
    "delete-reinsert oscillation of a fixed core: worst-case epoch churn "
    "under an oblivious adversary stays amortized-polylog",
    run};

}  // namespace
}  // namespace pdmm::bench
