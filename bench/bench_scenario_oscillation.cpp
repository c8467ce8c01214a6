// S3 (scenario): adversarial delete-reinsert oscillation. OscillationStream
// flaps a fixed core edge set every other batch — oblivious (the pattern is
// fixed up front), yet a worst case for epoch longevity: matched epochs on
// core endpoints keep dying young, and settles re-run over the same
// neighbourhoods. Sweeping the core size relative to the background shows
// how the amortization absorbs maximum-churn hot spots; the sequential
// baseline runs the same stream for contrast.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t background = ctx.u64("background_edges", 2ull * n, 2ull * n);
  const uint64_t cycles = ctx.u64("cycles", 30, 4);
  const auto core_shifts = {3u, 1u};  // core = background >> shift
  const auto shape = [&](unsigned core_shift) {
    OscillationStream::Options so;
    so.n = n;
    so.core_edges = background >> core_shift;
    so.background_edges = background;
    so.seed = ctx.seed(83);
    return so;
  };
  for (const unsigned core_shift : core_shifts) {
    // The core is cut from --background_edges, which answers for it.
    ShapeError e = OscillationStream::check(shape(core_shift));
    if (e.field == "core_edges") e.field = "background_edges";
    require(ctx, e);
  }

  for (const unsigned core_shift : core_shifts) {
    const OscillationStream::Options so = shape(core_shift);
    const uint64_t core = so.core_edges;
    // One oscillation cycle = delete the whole core + reinsert it.
    const size_t batch = 512;
    const size_t batches_per_cycle = 2 * ((core + batch - 1) / batch);
    const size_t batches =
        static_cast<size_t>(cycles) * batches_per_cycle;

    ctx.point({p("impl", "pdmm"), p("core_edges", core)}, [&] {
      ThreadPool pool(ctx.threads(1));
      DynamicMatcher m(bench_config(ctx, 151), pool);
      OscillationStream stream(so);
      warm(m, stream, background + core, batch);  // the build phase
      Sample s = drive(m, stream, batches, batch);
      const auto& st = m.stats();
      s.metrics = {{"work_per_update", per_update(s.work, s.updates)},
                   {"rounds_per_batch", per_batch(s.rounds, batches)},
                   {"us_per_update", us_per_update(s.seconds, s.updates)},
                   {"settles", static_cast<double>(st.settles)},
                   {"temp_deleted", static_cast<double>(st.temp_deleted)},
                   {"matching", static_cast<double>(m.matching_size())}};
      return s;
    });

    ctx.point({p("impl", "sequential"), p("core_edges", core)}, [&] {
      SequentialDynamicMatcher m(sequential_options(bench_config(ctx, 152)));
      OscillationStream stream(so);
      warm_base(m, stream, background + core, batch);
      Sample s = drive_base(m, stream, batches, batch);
      s.metrics = {{"work_per_update", per_update(s.work, s.updates)},
                   {"rounds_per_batch", per_batch(s.rounds, batches)},
                   {"us_per_update", us_per_update(s.seconds, s.updates)},
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
