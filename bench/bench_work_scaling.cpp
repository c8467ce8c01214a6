// E3 (Theorem 4.16): amortized work per update is
// O(alpha^8 L^2 log^2(alpha) log^7 N) whp — polylogarithmic in n for fixed
// rank. Measured: element work per update at steady state as n grows; the
// growth rate should be consistent with polylog(n) (log-x plot is gently
// superlinear, while any n^eps growth would double every constant number of
// points).
#include <cmath>

#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const uint64_t max_n = ctx.u64("max_n", 1 << 17, 1 << 12);
  const uint64_t updates_per_point = ctx.u64("updates", 1 << 16, 1 << 11);

  double prev = 0;
  for (Vertex n = 1 << 10; n <= max_n; n *= 2) {
    double wpu = 0;  // written by the body; identical across repetitions
    ctx.point({p("n", static_cast<uint64_t>(n))}, [&, n] {
      ThreadPool pool(ctx.threads(1));
      Config cfg;
      cfg.max_rank = 2;
      cfg.seed = ctx.seed(7);
      cfg.initial_capacity = 64ull * n + (1ull << 16);
      cfg.auto_rebuild = false;
      DynamicMatcher m(cfg, pool);

      ChurnStream::Options so;
      so.n = n;
      so.target_edges = 2 * static_cast<size_t>(n);
      so.seed = ctx.seed(3);
      ChurnStream stream(so);
      warm(m, stream, ctx.warm(3 * so.target_edges), 1024);

      const size_t batch = 256;
      const size_t batches = updates_per_point / batch;
      const DriveResult r = drive(m, stream, batches, batch);

      wpu = per_update(r.work, r.updates);
      const double log_n =
          std::log2(static_cast<double>(m.scheme().n_bound()));
      Sample s = to_sample(r);
      s.metrics = {
          {"L", static_cast<double>(m.scheme().top_level())},
          {"work_per_update", wpu},
          {"work_per_update_per_log3N", wpu / (log_n * log_n * log_n)},
          {"rounds_per_batch", per_batch(r.rounds, batches)},
          {"us_per_update", us_per_update(r.seconds, r.updates)}};
      return s;
    });
    if (prev > 0 && wpu > prev * 4) {
      ctx.note(
          "WARNING: work/update quadrupled on doubling n — inconsistent "
          "with polylog scaling");
    }
    prev = wpu;
  }
}

[[maybe_unused]] const Registrar registrar{
    "work_scaling", "E3",
    "amortized work/update polylog(n) for fixed rank (Theorem 4.16)", run};

}  // namespace
}  // namespace pdmm::bench
