// E1 (Theorem 2.2): static parallel hypergraph maximal matching finishes in
// O(log M) Luby rounds with O(M r log M) work.
//
// One sweep point per (M, r); `luby_rounds` should grow ~ c * log2(M) and
// `work_per_Mr` should stay within a small factor of `luby_rounds`.
#include "bench_common.h"
#include "static_mm/luby.h"
#include "util/rng.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t max_m = ctx.u64("max_m", 1 << 18, 1 << 12);
  const unsigned threads = ctx.threads(0);

  for (const uint32_t r : {2u, 3u, 5u}) {
    for (size_t m = 1 << 10; m <= max_m; m *= 4) {
      ctx.point({p("M", m), p("r", static_cast<uint64_t>(r))}, [&, m, r] {
        ThreadPool pool(threads);
        const Vertex n = static_cast<Vertex>(m / 2);
        const uint64_t seed = ctx.seed(42 + m + r);
        HyperedgeRegistry reg(r);
        Xoshiro256 rng(seed);
        while (reg.num_edges() < m) {
          std::vector<Vertex> eps(r);
          for (auto& v : eps) v = static_cast<Vertex>(rng.below(n));
          std::sort(eps.begin(), eps.end());
          if (std::adjacent_find(eps.begin(), eps.end()) != eps.end())
            continue;
          reg.insert(eps);
        }
        const auto all = reg.all_edges();
        CostCounters cost;
        Timer t;
        const StaticMMResult res =
            static_maximal_matching(pool, reg, all, seed * 77, &cost);
        Sample s;
        s.seconds = t.seconds();
        s.work = cost.work;
        s.rounds = res.rounds;
        s.updates = m;  // one pass over M edges
        s.metrics = {
            {"luby_rounds", static_cast<double>(res.rounds)},
            {"rounds_per_log2M",
             static_cast<double>(res.rounds) / log2_ceil(m + 2)},
            {"work_per_Mr", static_cast<double>(cost.work) /
                                (static_cast<double>(m) * r)},
            {"matching", static_cast<double>(res.matched.size())}};
        return s;
      });
    }
  }
}

[[maybe_unused]] const Registrar registrar{
    "static_mm", "E1",
    "Luby static MM: O(log M) rounds, O(M r log M) work, whp (Theorem 2.2)",
    run};

}  // namespace
}  // namespace pdmm::bench
