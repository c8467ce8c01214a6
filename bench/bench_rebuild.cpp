// E14 (§3.2.1): the N-doubling rebuild is amortized O(1) per update — each
// rebuild costs O(graph), but doublings space out geometrically, so the
// cumulative work/update stays flat across rebuild boundaries. Measured:
// per-window work/update over a long insert-heavy stream with auto_rebuild
// on; the per-window points annotate the windows in which rebuilds fired.
#include "bench_common.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 14, 1 << 10);
  const uint64_t windows = ctx.u64("windows", 24, 6);
  const uint64_t window_updates = ctx.u64("window_updates", 1 << 13, 1 << 9);

  struct Window {
    uint64_t updates, rebuilds, work;
    double win_wpu, cum_wpu;
    int top_level;
    uint64_t n_bound;
    double seconds;
  };
  std::vector<Window> per_window;

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = 1ull << 30;  // effectively insert-only
  so.seed = ctx.seed(47);
  // The target is out of reach on purpose, so the live count is bounded
  // by the updates the windows request, whole 512-update batches each.
  require(ctx, ChurnStream::check(
                   so, 512, windows * ((window_updates + 511) / 512 * 512)));

  ctx.point({p("windows", windows)}, [&] {
    per_window.clear();
    ThreadPool pool(ctx.threads(1));
    Config cfg = bench_config(ctx, 91);
    cfg.initial_capacity = 1 << 10;  // tiny: forces a cascade of rebuilds
    cfg.auto_rebuild = true;
    DynamicMatcher m(cfg, pool);
    ChurnStream stream(so);

    Sample s;
    uint64_t prev_rebuilds = 0;
    Timer total;
    for (uint64_t w = 0; w < windows; ++w) {
      const uint64_t work_before = s.work, updates_before = s.updates;
      Timer t;
      while (s.updates - updates_before < window_updates) {
        step(m, stream.next(512), s);
      }
      const uint64_t win_work = s.work - work_before;
      const uint64_t rebuilds = m.stats().rebuilds - prev_rebuilds;
      prev_rebuilds = m.stats().rebuilds;
      per_window.push_back({s.updates, rebuilds, win_work,
                            per_update(win_work, s.updates - updates_before),
                            per_update(s.work, s.updates),
                            m.scheme().top_level(), m.scheme().n_bound(),
                            t.seconds()});
    }
    s.seconds = total.seconds();
    s.metrics = {
        {"rebuilds", static_cast<double>(m.stats().rebuilds)},
        {"cumulative_work_per_update", per_update(s.work, s.updates)},
        {"final_L", static_cast<double>(m.scheme().top_level())},
        {"final_N", static_cast<double>(m.scheme().n_bound())}};
    return s;
  });

  // Per-window breakdown from the last repetition (counters deterministic).
  for (size_t w = 0; w < per_window.size(); ++w) {
    const Window& win = per_window[w];
    Sample s;
    s.seconds = win.seconds;
    s.work = win.work;
    s.updates = window_updates;
    s.metrics = {{"rebuilds", static_cast<double>(win.rebuilds)},
                 {"window_work_per_update", win.win_wpu},
                 {"cumulative_work_per_update", win.cum_wpu},
                 {"L", static_cast<double>(win.top_level)},
                 {"N", static_cast<double>(win.n_bound)}};
    ctx.record({p("window", static_cast<uint64_t>(w))}, std::move(s));
  }
  ctx.note(
      "expectation: rebuild windows spike window_work_per_update but "
      "cumulative_work_per_update converges");
}

[[maybe_unused]] const Registrar registrar{
    "rebuild", "E14",
    "N-doubling rebuilds amortize to O(1)/update: cumulative work/update "
    "stays flat while N and L grow (§3.2.1)",
    run};

}  // namespace
}  // namespace pdmm::bench
