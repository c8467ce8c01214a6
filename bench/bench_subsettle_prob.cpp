// E6 (Lemma 4.2): one grand-random-subsettle empties the rising set B with
// probability >= 1/2, so settles finish within O(log N) subsettle repeats
// whp. Measured: the distribution of subsettle repetitions per settle on a
// workload engineered to trigger many settles (hub-heavy Zipf churn).
#include "bench_common.h"
#include "util/stats.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t n = ctx.u64("n", 1 << 12, 1 << 9);
  const uint64_t rounds = ctx.u64("rounds", 300, 20);

  ctx.point({p("n", n)}, [&] {
    ThreadPool pool(ctx.threads(1));
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = ctx.seed(41);
    cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
    cfg.auto_rebuild = false;
    DynamicMatcher m(cfg, pool);

    ChurnStream::Options so;
    so.n = static_cast<Vertex>(n);
    so.target_edges = 4 * n;
    so.zipf_s = 0.9;  // hubs own many edges => frequent rising
    so.seed = ctx.seed(17);
    ChurnStream stream(so);

    uint64_t prev_settles = 0, prev_subsettles = 0;
    PercentileStats repeats;
    Sample s;
    Timer t;
    for (uint64_t i = 0; i < rounds; ++i) {
      const Batch b = stream.next(512);
      s.updates += b.deletions.size() + b.insertions.size();
      std::vector<EdgeId> dels;
      for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
      const auto res = m.update(dels, b.insertions);
      s.work += res.work;
      s.rounds += res.rounds;
      s.max_batch_rounds = std::max(s.max_batch_rounds, res.rounds);
      const auto& st = m.stats();
      const uint64_t ds = st.settles - prev_settles;
      const uint64_t db = st.subsettles - prev_subsettles;
      if (ds > 0) {
        // Mean repeats per settle in this batch (individual settles are not
        // separable from aggregate counters; batch granularity suffices for
        // the distribution shape).
        repeats.add(static_cast<double>(db) / static_cast<double>(ds));
      }
      prev_settles = st.settles;
      prev_subsettles = st.subsettles;
    }
    s.seconds = t.seconds();

    const auto& st = m.stats();
    s.metrics = {
        {"settles", static_cast<double>(st.settles)},
        {"subsettles", static_cast<double>(st.subsettles)},
        {"subsubsettle_iters", static_cast<double>(st.subsubsettles)},
        {"whp_cap_fallbacks", static_cast<double>(st.settle_fallbacks)},
        {"repeats_mean",
         st.settles ? static_cast<double>(st.subsettles) /
                          static_cast<double>(st.settles)
                    : 0.0},
        {"repeats_p50", repeats.percentile(50)},
        {"repeats_p90", repeats.percentile(90)},
        {"repeats_p99", repeats.percentile(99)},
        {"repeats_max", repeats.max()},
        {"edges_lifted", static_cast<double>(st.edges_lifted)},
        {"temp_deleted", static_cast<double>(st.temp_deleted)}};
    return s;
  });
  ctx.note(
      "Lemma 4.2 predicts repeats_mean <= 2 (geometric with p >= 1/2); "
      "whp_cap_fallbacks must be 0");
}

[[maybe_unused]] const Registrar registrar{
    "subsettle_prob", "E6",
    "each subsettle empties B with prob >= 1/2 => mean repeats per settle "
    "<= 2, tail decays geometrically (Lemma 4.2)",
    run};

}  // namespace
}  // namespace pdmm::bench
