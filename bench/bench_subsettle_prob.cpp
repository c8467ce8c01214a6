// E6 (Lemma 4.2): one grand-random-subsettle empties the rising set B with
// probability >= 1/2, so settles finish within O(log N) subsettle repeats
// whp. Measured: the distribution of subsettle repetitions per settle on a
// workload engineered to trigger many settles (hub-heavy Zipf churn).
#include "bench_common.h"
#include "util/stats.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t rounds = ctx.u64("rounds", 300, 20);

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = 4ull * n;
  so.zipf_s = 0.9;  // hubs own many edges => frequent rising
  so.seed = ctx.seed(17);
  require(ctx, ChurnStream::check(so, 512));

  ctx.point({p("n", n)}, [&] {
    ThreadPool pool(ctx.threads(1));
    DynamicMatcher m(bench_config(ctx, 41), pool);
    ChurnStream stream(so);

    uint64_t prev_settles = 0, prev_subsettles = 0;
    PercentileStats repeats;
    Sample s;
    Timer t;
    for (uint64_t i = 0; i < rounds; ++i) {
      step(m, stream.next(512), s);
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
