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
  // Vertex counts are kept in 32 bits; the loop runs in 64 so that n *= 2
  // cannot wrap past a max_n near 2^32.
  const uint64_t max_n = ctx.u32("max_n", 1 << 17, 1 << 12);
  const uint64_t updates_per_point = ctx.u64("updates", 1 << 16, 1 << 11);

  double prev = 0;
  for (uint64_t wide_n = 1 << 10; wide_n <= max_n; wide_n *= 2) {
    const auto n = static_cast<Vertex>(wide_n);
    double wpu = 0;  // written by the body; identical across repetitions
    ctx.point({p("n", wide_n)}, [&, n] {
      ThreadPool pool(ctx.threads(1));
      DynamicMatcher m(bench_config(ctx, 7, 64ull * n + (1ull << 16)), pool);

      ChurnStream::Options so;
      so.n = n;
      so.target_edges = 2 * static_cast<size_t>(n);
      so.seed = ctx.seed(3);
      ChurnStream stream(so);
      warm(m, stream, ctx.warm(3 * so.target_edges), 1024);

      const size_t batch = 256;
      const size_t batches = updates_per_point / batch;
      Sample s = drive(m, stream, batches, batch);

      wpu = per_update(s.work, s.updates);
      const double log_n =
          std::log2(static_cast<double>(m.scheme().n_bound()));
      s.metrics = {
          {"L", static_cast<double>(m.scheme().top_level())},
          {"work_per_update", wpu},
          {"work_per_update_per_log3N", wpu / (log_n * log_n * log_n)},
          {"rounds_per_batch", per_batch(s.rounds, batches)},
          {"us_per_update", us_per_update(s.seconds, s.updates)}};
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
