// E21: updater latency under durability — the churn stream driven through
// the staged UpdateEngine, journaling every batch with per-record fsync.
// "sync" is the synchronous reference engine paying one inline fsync per
// batch; the pipelined points move the fsync off the settle path and (with
// group_commit > 1) amortize it over a commit group. The
// machine-independent counters must not move across engines, while the
// submit-to-published latency percentiles show where the fsync cost went.
// (Split out of the E17 serve bench, which had been double-booking the
// experiment id for both the reader sweep and the engine sweep.)
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "bench_common.h"
#include "engine/update_engine.h"
#include "persist/journal.h"
#include "serve/view_service.h"
#include "util/stats.h"

namespace pdmm::bench {
namespace {

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 2ull * n, 2ull * n);
  const uint64_t batches = ctx.u64("batches", 60, 6);
  const uint64_t batch_size = ctx.u64("batch_size", 256, 64);
  const size_t warm_updates = ctx.warm(2 * target);

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = target;
  so.seed = ctx.seed(17);

  struct EngineCfg {
    const char* engine;
    bool pipelined;
    uint64_t group_commit;
  };
  const EngineCfg engine_cfgs[] = {
      {"sync", false, 1},
      {"pipelined", true, 1},
      {"pipelined", true, 8},
  };
  const std::string wal_base =
      (std::filesystem::temp_directory_path() /
       ("pdmm_bench_engine." + std::to_string(::getpid()) + ".wal"))
          .string();
  size_t wal_seq = 0;
  for (const EngineCfg& ec : engine_cfgs) {
    ctx.point(
        {p("engine", ec.engine), p("group_commit", ec.group_commit),
         p("k", batch_size)},
        [&] {
          ThreadPool pool(ctx.threads(0));
          Config cfg;
          cfg.max_rank = 2;
          cfg.seed = ctx.seed(18);
          cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 22);
          cfg.auto_rebuild = false;
          DynamicMatcher m(cfg, pool);
          // The bench driver owns the matcher until the engine starts.
          m.updater_role().assert_held();

          ChurnStream stream(so);
          warm(m, stream, warm_updates, 1024);

          MatchViewService::Options sopt;
          sopt.max_readers = 8;
          sopt.install_hook = false;  // the engine publishes
          MatchViewService serve(m, sopt);

          const std::string wal = wal_base + std::to_string(wal_seq++);
          std::remove(wal.c_str());
          persist::Journal::Options jopt;
          jopt.fsync_each = true;
          std::string err;
          auto journal = persist::Journal::open(wal, jopt, &err);
          if (!journal) std::abort();

          // Counter capture at the settle barrier (settle-stage thread);
          // read back only after stop() joins the stages.
          uint64_t work = 0, rounds = 0, max_batch_rounds = 0;
          m.set_post_batch_hook(
              [&](const DynamicMatcher::BatchResult& res) {
                work += res.work;
                rounds += res.rounds;
                max_batch_rounds = std::max(max_batch_rounds, res.rounds);
              });

          engine::UpdateEngine::Options eopt;
          eopt.pipelined = ec.pipelined;
          // Shallow ingest queue so submit-relative latency measures the
          // pipeline depth, not an 8-deep backlog racing ahead of S.
          eopt.queue_capacity = 2;
          eopt.group_commit = static_cast<size_t>(ec.group_commit);
          eopt.record_latency = true;

          Sample s;
          PercentileStats durable_us, published_us;
          Timer t;
          {
            engine::UpdateEngine eng(m, &serve, journal.get(), eopt);
            for (size_t i = 0; i < batches; ++i) {
              const Batch b = stream.next(batch_size);
              s.updates += b.deletions.size() + b.insertions.size();
              if (!eng.submit(b)) std::abort();
            }
            if (!eng.stop()) std::abort();
            s.seconds = t.seconds();
            for (const engine::LatencySample& l : eng.latency_samples()) {
              durable_us.add(l.durable_us);
              published_us.add(l.published_us);
            }
          }
          m.set_post_batch_hook(nullptr);
          std::remove(wal.c_str());

          s.work = work;
          s.rounds = rounds;
          s.max_batch_rounds = max_batch_rounds;
          s.metrics = {
              {"published_p50_us", published_us.median()},
              {"published_p99_us", published_us.percentile(99)},
              {"durable_p50_us", durable_us.median()},
              {"durable_p99_us", durable_us.percentile(99)},
              {"us_per_update", us_per_update(s.seconds, s.updates)},
          };
          return s;
        });
  }
  ctx.note(
      "work/rounds must be identical across the three engine points "
      "(pipelining changes schedules, never results). The headline is "
      "group_commit=8 vs group_commit=1 under fsync: one sync covers 8 "
      "batches, so durable_p50_us and us_per_update both drop — the "
      "steeper the device's sync cost, the larger the gap. Sync-engine "
      "latency is submit-to-retire of a single batch (submit blocks), so "
      "pipelined points carry queueing on top; they win on throughput "
      "(us_per_update), and on latency once fsync dominates the batch");
}

[[maybe_unused]] const Registrar registrar{
    "engine_latency", "E21",
    "durable update engines: pipelined/group-commit fsync amortization vs "
    "the synchronous engine, identical counters, latency percentiles",
    run};

}  // namespace
}  // namespace pdmm::bench
