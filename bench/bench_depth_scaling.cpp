// E2 (Theorem 4.4): the depth of processing any batch is
// O(L * log(alpha) * log^3 N) whp — polylogarithmic, independent of the
// batch size k and of the graph size n except through log factors.
//
// Measured quantity: parallel rounds per batch (depth proxy; each round is
// one parallel primitive, costing O(log N) PRAM depth at most).
// Two sweeps: rounds-vs-n at fixed k, and rounds-vs-k at fixed n.
#include <cmath>

#include "bench_common.h"

namespace pdmm::bench {
namespace {

void sweep_point(Ctx& ctx, Vertex n, size_t k, size_t measure_batches) {
  ctx.point({p("n", static_cast<uint64_t>(n)), p("k", k)}, [&, n, k] {
    ThreadPool pool(ctx.threads(1));
    DynamicMatcher m(bench_config(ctx, 1234, 64ull * n + (1ull << 16)),
                     pool);

    ChurnStream::Options so;
    so.n = n;
    so.target_edges = 2 * static_cast<size_t>(n);
    so.seed = ctx.seed(99);
    ChurnStream stream(so);
    warm(m, stream, ctx.warm(3 * so.target_edges), 512);

    Sample s = drive(m, stream, measure_batches, k);
    const double l = static_cast<double>(m.scheme().top_level());
    const double log_n = std::log2(static_cast<double>(m.scheme().n_bound()));
    const double mean = per_batch(s.rounds, measure_batches);
    s.metrics = {{"L", l},
                 {"log2_N", log_n},
                 {"rounds_per_batch", mean},
                 {"rounds_max", static_cast<double>(s.max_batch_rounds)},
                 {"rounds_normalized", mean / (l * log_n)}};
    return s;
  });
}

void run(Ctx& ctx) {
  // Vertex counts are kept in 32 bits; the loop runs in 64 so that n *= 4
  // cannot wrap past a max_n near 2^32.
  const uint64_t max_n = ctx.u32("max_n", 1 << 16, 1 << 11);
  const uint64_t batches = ctx.u64("batches", 40, 5);

  // Sweep 1: n grows, k fixed. rounds/batch should grow ~polylog (the
  // normalized metric stays near-constant).
  for (uint64_t n = 1 << 10; n <= max_n; n *= 4) {
    sweep_point(ctx, static_cast<Vertex>(n), 256, batches);
  }
  // Sweep 2: k grows, n fixed. Theorem 4.4 is an upper bound: tiny batches
  // finish in a handful of rounds (settle loops terminate as soon as the
  // rising sets empty), and rounds/batch saturates at the polylog ceiling
  // L*log(alpha)*log^2(N)-ish instead of growing ~k the way a sequential
  // matcher's dependency chain does (see E4 for that contrast).
  const Vertex fixed_n = ctx.smoke() ? (1 << 11) : (1 << 14);
  const size_t k_cap = ctx.smoke() ? (1u << 8) : (1u << 14);
  for (size_t k = 1; k <= k_cap; k *= 8) {
    sweep_point(ctx, fixed_n, k, batches);
  }
  ctx.note(
      "expectation: sweep-1 rounds_normalized ~constant; sweep-2 "
      "rounds/batch grows sublinearly in k and saturates (ceiling "
      "L*log(alpha)*log^2 N), vs Theta(k) for sequential");
}

[[maybe_unused]] const Registrar registrar{
    "depth_scaling", "E2",
    "batch depth O(L * log(alpha) * log^3 N) whp — polylog in n and "
    "independent of batch size k (Theorem 4.4)",
    run};

}  // namespace
}  // namespace pdmm::bench
