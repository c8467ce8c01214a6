// E16: matching quality over time. A maximal matching is guaranteed >= 1/r
// of the maximum (paper §2); on bipartite rank-2 workloads the exact
// optimum is computable at scale with Hopcroft–Karp, so this harness tracks
// the real ratio |maximal| / |maximum| as the graph churns. Maximality is
// a 2-approximation in the worst case; random churn typically sits far
// above it, and this quantifies how far.
#include "bench_common.h"
#include "static_mm/hopcroft_karp.h"
#include "util/stats.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex nl = ctx.u32("n_left", 1 << 12, 1 << 9);
  const Vertex nr = ctx.u32("n_right", 1 << 12, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 3ull * nl, 3ull * nl);
  const uint64_t checkpoints = ctx.u64("checkpoints", 12, 3);

  struct Checkpoint {
    uint64_t updates;
    size_t edges, maximal, maximum;
    double ratio;
  };
  std::vector<Checkpoint> cps;

  ctx.point({p("checkpoints", checkpoints)}, [&] {
    cps.clear();
    ThreadPool pool(ctx.threads(1));
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = ctx.seed(101);
    cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
    cfg.auto_rebuild = false;
    DynamicMatcher m(cfg, pool);

    // Bipartite churn: sample left endpoint from [0, nl), right from
    // [nl, nl+nr). Reuse ChurnStream by post-mapping is impossible (it
    // draws from one universe), so generate directly against a LiveSet.
    Xoshiro256 rng(ctx.seed(55));
    LiveSet live(2);
    auto random_bip_edge = [&]() {
      while (true) {
        const Vertex a = static_cast<Vertex>(rng.below(nl));
        const Vertex b = static_cast<Vertex>(nl + rng.below(nr));
        const std::vector<Vertex> eps{a, b};
        auto ins = live.insert_exact(eps);
        if (!ins.empty()) return ins;
      }
    };

    Sample s;
    PercentileStats ratios;
    Timer t;
    for (uint64_t cp = 0; cp < checkpoints; ++cp) {
      // One churn window: grow to target, then 20% turnover.
      Batch b;
      while (live.size() < target) b.insertions.push_back(random_bip_edge());
      const size_t turnover = live.size() / 5;
      for (size_t i = 0; i < turnover && cp > 0; ++i)
        b.deletions.push_back(live.erase_random(rng));
      for (size_t i = 0; i < turnover && cp > 0; ++i)
        b.insertions.push_back(random_bip_edge());
      s.updates += b.deletions.size() + b.insertions.size();

      std::vector<EdgeId> dels;
      for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
      const auto res = m.update(dels, b.insertions);
      s.work += res.work;
      s.rounds += res.rounds;
      s.max_batch_rounds = std::max(s.max_batch_rounds, res.rounds);

      const size_t opt = hopcroft_karp_max_matching_split(
          m.graph(), m.graph().all_edges(), nl);
      const double ratio = static_cast<double>(m.matching_size()) /
                           static_cast<double>(std::max<size_t>(opt, 1));
      ratios.add(ratio);
      cps.push_back({s.updates, m.graph().num_edges(), m.matching_size(),
                     opt, ratio});
    }
    s.seconds = t.seconds();
    s.metrics = {{"ratio_min", ratios.percentile(0)},
                 {"ratio_p50", ratios.median()},
                 {"worst_case_bound", 0.5}};
    return s;
  });

  for (size_t i = 0; i < cps.size(); ++i) {
    const Checkpoint& c = cps[i];
    Sample s;
    s.updates = c.updates;
    s.metrics = {{"edges", static_cast<double>(c.edges)},
                 {"maximal", static_cast<double>(c.maximal)},
                 {"maximum", static_cast<double>(c.maximum)},
                 {"ratio", c.ratio}};
    ctx.record({p("checkpoint", static_cast<uint64_t>(i))}, std::move(s));
  }
  ctx.note("ratio: worst-case bound for r=2 is 0.5; random churn sits far "
           "above it");
}

[[maybe_unused]] const Registrar registrar{
    "quality", "E16",
    "maximal matching >= 1/2 of maximum (r=2); measured ratio on churning "
    "bipartite graphs via Hopcroft-Karp",
    run};

}  // namespace
}  // namespace pdmm::bench
