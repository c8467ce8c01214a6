// E13: wall-clock scaling with thread count. The work/rounds counters are
// thread-invariant by construction (verified here); wall-clock improves
// with cores. Two batch regimes: the small-batch points measure fork/join
// overhead (parallelism has little to amortize it), the large-batch
// scenario is where the paper's polylog-depth phases have real width and
// thread scaling must pay. The pool opts into oversubscription so every
// requested width genuinely runs that many workers even on a small box
// (the determinism suite uses the same trick): on such a box the timing
// points are flat-to-worse past the core count — hw_threads records the
// machine's width so readers can tell real scaling from oversubscribed
// counter-invariance evidence.
#include <thread>

#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t batches = ctx.u64("batches", 30, 4);
  const std::vector<uint64_t> batch_sizes =
      ctx.smoke() ? std::vector<uint64_t>{256}
                  : std::vector<uint64_t>{1024, 8192};
  ChurnStream::Options so;
  so.n = n;
  so.target_edges = 2ull * n;
  so.seed = ctx.seed(43);
  require(ctx, ChurnStream::check(so, batch_sizes.back()));

  for (const uint64_t batch : batch_sizes) {
    uint64_t ref_work = 0, ref_rounds = 0;
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      const auto sp = ctx.point(
          {p("batch", batch), p("threads", static_cast<uint64_t>(threads))},
          [&, threads] {
            ThreadPool pool(threads, /*allow_oversubscribe=*/true);
            DynamicMatcher m(bench_config(ctx, 81), pool);
            ChurnStream stream(so);
            warm(m, stream, ctx.warm(3 * so.target_edges), batch);
            Sample s = drive(m, stream, batches, batch);
            // effective_threads records the worker count that actually
            // ran (the oversubscribing pool honors the request), and
            // hw_threads the machine's width; points past hw_threads are
            // concurrency/counter-invariance evidence, not a scaling
            // curve, and the JSON says so rather than hiding it.
            s.metrics = {{"us_per_batch",
                          s.seconds * 1e6 / static_cast<double>(batches)},
                         {"work_per_batch", per_batch(s.work, batches)},
                         {"rounds_per_batch", per_batch(s.rounds, batches)},
                         {"matching",
                          static_cast<double>(m.matching_size())},
                         {"effective_threads",
                          static_cast<double>(pool.num_threads())},
                         {"hw_threads",
                          static_cast<double>(
                              std::thread::hardware_concurrency())}};
            return s;
          });
      if (threads == 1) {
        ref_work = sp.sample.work;
        ref_rounds = sp.sample.rounds;
      } else if (sp.sample.work != ref_work ||
                 sp.sample.rounds != ref_rounds) {
        // Don't abort the whole runner (other benchmarks' results and the
        // JSON report must survive); flag loudly on stderr instead, like
        // the registry's own cross-repetition check does.
        ctx.note("ERROR: counters changed with thread count — determinism "
                 "violated");
        std::fprintf(stderr,
                     "warning: threads: work/rounds changed between 1 and %u "
                     "threads (batch=%llu) — determinism violated\n",
                     threads, static_cast<unsigned long long>(batch));
      }
    }
  }
}

[[maybe_unused]] const Registrar registrar{
    "threads", "E13",
    "wall-clock scales with threads; work/rounds are invariant "
    "(deterministic parallelism)",
    run};

}  // namespace
}  // namespace pdmm::bench
