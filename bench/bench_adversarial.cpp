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
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t rounds = ctx.u64("rounds", 100, 10);

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = 3ull * n;
  so.seed = ctx.seed(37);
  require(ctx, ChurnStream::check(so, 1024));
  AdversarialMatchedDeleter::Options ao;
  ao.n = n;
  ao.seed = ctx.seed(38);
  const uint64_t grow = 3ull * n / 64;
  require(ctx, AdversarialMatchedDeleter::check(ao, 64, (grow + rounds) * 64));

  ctx.point({p("adversary", "oblivious-uniform")}, [&] {
    ThreadPool pool(ctx.threads(1));
    DynamicMatcher m(bench_config(ctx, 71), pool);
    ChurnStream stream(so);
    warm(m, stream, ctx.warm(3 * so.target_edges), 1024);
    Sample s = drive(m, stream, rounds, 128);
    s.metrics = {{"work_per_update", per_update(s.work, s.updates)},
                 {"us_per_update", us_per_update(s.seconds, s.updates)},
                 {"matching", static_cast<double>(m.matching_size())}};
    return s;
  });

  ctx.point({p("adversary", "adaptive-matched")}, [&] {
    ThreadPool pool(ctx.threads(1));
    PdmmAdapter m(bench_config(ctx, 72), pool);
    // The adversary reads the matcher it attacks.
    struct {
      AdversarialMatchedDeleter adv;
      const MatcherBase& m;
      Batch next(size_t k) { return adv.next(m, k); }
    } stream{AdversarialMatchedDeleter(ao), m};
    for (uint64_t i = 0; i < grow; ++i) apply_batch(m, stream.next(64));
    // Each batch depends on the matching the last one left, so this
    // segment draws its batches inside the clock.
    Sample s;
    const auto before = m.total_cost();
    Timer t;
    for (uint64_t i = 0; i < rounds; ++i) {
      const Batch b = stream.next(64);
      s.updates += b.deletions.size() + b.insertions.size();
      apply_batch(m, b);
    }
    s.seconds = t.seconds();
    s.work = m.total_cost().work - before.work;
    s.rounds = m.total_cost().rounds - before.rounds;
    s.metrics = {{"work_per_update", per_update(s.work, s.updates)},
                 {"us_per_update", us_per_update(s.seconds, s.updates)},
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
