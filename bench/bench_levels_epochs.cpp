// E7 (Lemma 4.6): every grand-random-settle(B, l) matches at least
// |B|/alpha^3 edges at level l — measured via lifted-edges / settles.
// E8 (Lemmas 4.13–4.15): epoch counts per level decay geometrically
// (T_l <~ t / (mu alpha^l)); the D(e) budget consumed before natural
// epoch endings is what pays for them.
#include "bench_common.h"
#include "core/epoch_stats.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t total_updates = ctx.u64("updates", 1 << 19, 1 << 13);

  EpochStats epochs(0);
  int top_level = 0;

  ctx.point({p("n", n), p("updates", total_updates)}, [&] {
    ThreadPool pool(ctx.threads(1));
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = ctx.seed(51);
    cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
    cfg.auto_rebuild = false;
    DynamicMatcher m(cfg, pool);

    ChurnStream::Options so;
    so.n = n;
    so.target_edges = 4ull * n;
    so.zipf_s = 0.8;
    so.seed = ctx.seed(23);
    ChurnStream stream(so);

    Sample s;
    Timer t;
    size_t done = 0;
    while (done < total_updates) {
      const Batch b = stream.next(512);
      done += b.deletions.size() + b.insertions.size();
      std::vector<EdgeId> dels;
      for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
      const auto res = m.update(dels, b.insertions);
      s.work += res.work;
      s.rounds += res.rounds;
      s.max_batch_rounds = std::max(s.max_batch_rounds, res.rounds);
    }
    s.seconds = t.seconds();
    s.updates = done;

    epochs = m.epoch_stats();
    top_level = m.scheme().top_level();
    const auto& st = m.stats();
    s.metrics = {
        {"alpha", static_cast<double>(m.scheme().alpha())},
        {"L", static_cast<double>(top_level)},
        {"settles", static_cast<double>(st.settles)},
        {"edges_lifted", static_cast<double>(st.edges_lifted)},
        {"lifted_per_settle",
         st.settles ? static_cast<double>(st.edges_lifted) /
                          static_cast<double>(st.settles)
                    : 0.0}};
    return s;
  });

  // Per-level epoch accounting from the last repetition.
  uint64_t prev_created = 0;
  for (Level l = 0; l <= top_level; ++l) {
    const auto i = static_cast<size_t>(l);
    Sample s;
    s.metrics = {
        {"created", static_cast<double>(epochs.created[i])},
        {"ended_natural", static_cast<double>(epochs.ended_natural[i])},
        {"ended_induced", static_cast<double>(epochs.ended_induced[i])},
        {"d_provisioned", static_cast<double>(epochs.d_size_at_creation[i])},
        {"d_consumed", static_cast<double>(epochs.d_budget_consumed[i])}};
    ctx.record({p("level", static_cast<uint64_t>(i))}, std::move(s));
    if (l >= 2 && prev_created > 0 && epochs.created[i] > prev_created) {
      ctx.note("note: level " + std::to_string(l) +
               " created more epochs than level " + std::to_string(l - 1));
    }
    prev_created = epochs.created[i];
  }
  ctx.note(
      "expectation: created[l] decays roughly geometrically for l >= 1 "
      "(T_l <~ t/(mu alpha^l)); Lemma 4.6 floor on lifted_per_settle is "
      "|B|/alpha^3 with |B| >= 1: > 0");
}

[[maybe_unused]] const Registrar registrar{
    "levels_epochs", "E7+E8",
    "epochs per level decay geometrically; settles create >= |B|/alpha^3 "
    "epochs each; deleted D(e) budget pays for natural endings "
    "(Lemmas 4.6, 4.13-4.15)",
    run};

}  // namespace
}  // namespace pdmm::bench
