// S2 (scenario): hub-heavy power-law inserts. PowerLawStream couples one
// Zipf-ranked hub endpoint with uniform spokes, so a handful of vertices
// accumulate huge owned sets O(v) and keep crossing the o~(v, l) >= alpha^l
// rising thresholds — the stress case for grand-random-settle at high
// levels. Sweeping the Zipf exponent shows work/update as hub concentration
// grows; the settle counters make the level pressure visible.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 3ull * n, 3ull * n);
  const uint64_t batches = ctx.u64("batches", 60, 6);

  for (const double s_exp : {0.8, 1.1, 1.4}) {
    ctx.point({p("zipf_s", s_exp)}, [&, s_exp] {
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(131);
      cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);

      PowerLawStream::Options so;
      so.n = n;
      so.target_edges = target;
      so.s = s_exp;
      so.seed = ctx.seed(73);
      PowerLawStream stream(so);
      warm(m, stream, ctx.warm(3 * target), 1024);

      const DriveResult r = drive(m, stream, batches, 512);
      const auto& st = m.stats();
      // Hub pressure: the deepest level any vertex reached.
      int max_level = 0;
      for (Vertex v = 0; v < n; ++v) {
        max_level = std::max(max_level, m.vertex_level(v));
      }
      Sample s = to_sample(r);
      s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                   {"rounds_per_batch", per_batch(r.rounds, batches)},
                   {"us_per_update", us_per_update(r.seconds, r.updates)},
                   {"settles", static_cast<double>(st.settles)},
                   {"edges_lifted", static_cast<double>(st.edges_lifted)},
                   {"max_vertex_level", static_cast<double>(max_level)},
                   {"matching", static_cast<double>(m.matching_size())}};
      return s;
    });
  }
  ctx.note("higher zipf_s concentrates edges on hubs: settles and "
           "max_vertex_level rise while work/update must stay polylog");
}

[[maybe_unused]] const Registrar registrar{
    "scenario_powerlaw", "S2",
    "hub-heavy power-law inserts: high-degree hubs drive frequent "
    "high-level settles; amortized work stays polylog",
    run};

}  // namespace
}  // namespace pdmm::bench
