// E10: oblivious vs adaptive adversary. The amortized work bound assumes
// the adversary cannot see the algorithm's coins; an adaptive deleter that
// always removes currently-matched edges forfeits that analysis. Measured:
// work/update under a matched-edge-targeting deleter vs an oblivious
// uniform deleter on the same graph shape.
#include "bench_common.h"
#include "baselines/pdmm_adapter.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t n = ctx.u64("n", 1 << 12, 1 << 9);
  const uint64_t rounds = ctx.u64("rounds", 100, 10);
  const uint64_t cap = 1ull << (ctx.smoke() ? 15 : 22);

  ctx.point({p("adversary", "oblivious-uniform")}, [&] {
    ThreadPool pool(ctx.threads(1));
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = ctx.seed(71);
    cfg.initial_capacity = cap;
    cfg.auto_rebuild = false;
    DynamicMatcher m(cfg, pool);
    ChurnStream::Options so;
    so.n = static_cast<Vertex>(n);
    so.target_edges = 3 * n;
    so.seed = ctx.seed(37);
    ChurnStream stream(so);
    warm(m, stream, ctx.warm(3 * so.target_edges), 1024);
    const DriveResult r = drive(m, stream, rounds, 128);
    Sample s = to_sample(r);
    s.metrics = {{"work_per_update", per_update(r.work, r.updates)},
                 {"us_per_update", us_per_update(r.seconds, r.updates)},
                 {"matching", static_cast<double>(m.matching_size())}};
    return s;
  });

  ctx.point({p("adversary", "adaptive-matched")}, [&] {
    ThreadPool pool(ctx.threads(1));
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = ctx.seed(72);
    cfg.initial_capacity = cap;
    cfg.auto_rebuild = false;
    PdmmAdapter m(cfg, pool);
    AdversarialMatchedDeleter::Options ao;
    ao.n = static_cast<Vertex>(n);
    ao.seed = ctx.seed(38);
    AdversarialMatchedDeleter adv(ao);
    // Grow.
    for (uint64_t i = 0; i < 3 * n / 64; ++i) apply_batch(m, adv.next(m, 64));
    const auto before = m.total_cost();
    uint64_t updates = 0;
    Timer t;
    for (uint64_t i = 0; i < rounds; ++i) {
      const Batch b = adv.next(m, 64);
      updates += b.deletions.size() + b.insertions.size();
      apply_batch(m, b);
    }
    const auto after = m.total_cost();
    Sample s;
    s.seconds = t.seconds();
    s.work = after.work - before.work;
    s.rounds = after.rounds - before.rounds;
    s.updates = updates;
    s.metrics = {{"work_per_update", per_update(s.work, updates)},
                 {"us_per_update", us_per_update(s.seconds, updates)},
                 {"matching", static_cast<double>(m.matching_size())}};
    return s;
  });

  ctx.note(
      "the adaptive point exceeding the oblivious point quantifies how much "
      "the amortization leans on obliviousness");
}

[[maybe_unused]] const Registrar registrar{
    "adversarial", "E10",
    "adaptive matched-targeting deletions cost more per update than "
    "oblivious deletions, but correctness is unaffected",
    run};

}  // namespace
}  // namespace pdmm::bench
