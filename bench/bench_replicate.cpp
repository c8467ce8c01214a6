// E22: journal-shipping replication — follower lag distribution and
// catch-up throughput.
//
// A live follower (src/replicate) tails the primary's journal and applies
// every durable record through its own matcher. Per-epoch replication lag
// is the gap between the primary's group commit making epoch e durable
// (the engine's on_durable watermark callback, stamped on the committing
// thread) and the follower's apply of e (stamped on the follower thread
// right after its poll delivers the record). Group commit trades primary
// fsync cost for watermark freshness, so lag percentiles should move with
// group_commit while the follower's own replay cost stays put; pacing the
// primary (pace_us between submits) separates "lag because the primary
// batches commits" from "lag because the follower is saturated".
//
// The second number per point is cold catch-up: after the primary is done,
// a FRESH follower bootstraps from nothing and replays the whole journal
// at full speed — the recovery-time bound for a replica added late.
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

#include "bench_common.h"
#include "engine/update_engine.h"
#include "persist/journal.h"
#include "replicate/replica_engine.h"
#include "util/stats.h"

namespace pdmm::bench {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 12, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 2ull * n, 2ull * n);
  const uint64_t batches = ctx.u64("batches", 120, 16);
  const uint64_t batch_size = ctx.u64("batch_size", 128, 32);

  struct Pt {
    uint64_t group_commit;
    uint64_t pace_us;  // pause between primary submits (0: flat out)
  };
  const std::vector<Pt> pts = ctx.smoke()
                                  ? std::vector<Pt>{{1, 0}, {4, 0}}
                                  : std::vector<Pt>{
                                        {1, 0}, {4, 0}, {1, 200}, {4, 200}};

  const std::string base =
      (std::filesystem::temp_directory_path() /
       ("pdmm_bench_replicate." + std::to_string(::getpid())))
          .string();
  size_t seq = 0;

  for (const Pt& pt : pts) {
    ctx.point(
        {p("group_commit", pt.group_commit), p("pace_us", pt.pace_us),
         p("k", batch_size)},
        [&] {
          Config cfg;
          cfg.max_rank = 2;
          cfg.seed = ctx.seed(19);
          cfg.initial_capacity = 1ull << (ctx.smoke() ? 15 : 20);
          cfg.auto_rebuild = false;

          ChurnStream::Options so;
          so.n = n;
          so.target_edges = target;
          so.seed = ctx.seed(19) + 1;
          ChurnStream stream(so);

          const std::string wal = base + ".wal" + std::to_string(seq++);
          std::remove(wal.c_str());

          // durable_at[e] / applied_at[e]: when epoch e became durable on
          // the primary / applied on the follower (1-indexed by epoch).
          std::vector<Clock::time_point> durable_at(batches + 1);
          std::vector<Clock::time_point> applied_at(batches + 1);
          // mo: release/acquire on the watermark index — the follower
          // reads durable_at[e] only for e <= durable_mark.
          std::atomic<uint64_t> durable_mark{0};

          std::string ferr;
          uint64_t follower_polls = 0;
          std::thread follower([&] {
            ThreadPool fpool(ctx.threads(0));
            DynamicMatcher fm(cfg, fpool);
            replicate::ReplicaOptions ropt;
            ropt.journal_path = wal;
            ropt.backoff.initial_us = 50;
            ropt.backoff.max_us = 2000;
            ropt.backoff.seed = ctx.seed(19) + 2;
            replicate::ReplicaEngine rep(fm, nullptr, ropt);
            if (!rep.bootstrap(&ferr)) return;
            uint64_t applied = 0;
            rep.follow({.until_epoch = batches, .idle_ms = 60'000},
                       [&](replicate::TailStatus) {
                         const auto now = Clock::now();
                         for (; applied < rep.applied_epoch(); ++applied) {
                           applied_at[applied + 1] = now;
                         }
                       });
            if (rep.failed()) {
              ferr = rep.error();
            } else if (applied < batches) {
              ferr = "follower timed out behind the primary";
            }
            follower_polls = rep.health().polls;
          });

          // Primary: pipelined engine journaling the stream live.
          ThreadPool pool(ctx.threads(0));
          DynamicMatcher m(cfg, pool);
          m.updater_role().assert_held();
          uint64_t work = 0, rounds = 0, max_batch_rounds = 0;
          m.set_post_batch_hook(
              [&](const DynamicMatcher::BatchResult& res) {
                work += res.work;
                rounds += res.rounds;
                max_batch_rounds = std::max(max_batch_rounds, res.rounds);
              });
          persist::Journal::Options jopt;
          std::string err;
          auto journal = persist::Journal::open(wal, jopt, &err);
          if (!journal) std::abort();
          engine::UpdateEngine::Options eopt;
          eopt.pipelined = true;
          eopt.group_commit = static_cast<size_t>(pt.group_commit);
          eopt.on_durable = [&](uint64_t e) {
            const auto now = Clock::now();
            // mo: relaxed read of our own previous store (single
            // committing thread); release publish below.
            for (uint64_t i = durable_mark.load(std::memory_order_relaxed);
                 i < e; ++i) {
              durable_at[i + 1] = now;
            }
            durable_mark.store(e, std::memory_order_release);
          };

          Sample s;
          uint64_t updates = 0;
          Timer t;
          {
            engine::UpdateEngine eng(m, nullptr, journal.get(), eopt);
            for (uint64_t i = 0; i < batches; ++i) {
              const Batch b = stream.next(batch_size);
              updates += b.deletions.size() + b.insertions.size();
              if (!eng.submit(b)) std::abort();
              if (pt.pace_us) {
                // lint:allow(raw-sleep) fixed pace_us pause between
                // submits, not a retry wait — there is no condition to
                // back off on
                std::this_thread::sleep_for(
                    std::chrono::microseconds(pt.pace_us));
              }
            }
            if (!eng.stop()) std::abort();
          }
          s.seconds = t.seconds();
          follower.join();
          if (!ferr.empty()) {
            std::fprintf(stderr, "bench_replicate: follower failed: %s\n",
                         ferr.c_str());
            std::abort();
          }

          PercentileStats lag_us;
          for (uint64_t e = 1; e <= batches; ++e) {
            // The tailer can observe a record after fflush but before the
            // commit callback stamps it; clamp those at zero lag.
            lag_us.add(std::max(0.0,
                                us_between(durable_at[e], applied_at[e])));
          }

          // Cold catch-up: a fresh follower replays the finished journal
          // flat out.
          double catch_up_s = 0;
          {
            ThreadPool cpool(ctx.threads(0));
            DynamicMatcher cm(cfg, cpool);
            replicate::ReplicaOptions ropt;
            ropt.journal_path = wal;
            replicate::ReplicaEngine rep(cm, nullptr, ropt);
            std::string cerr_;
            if (!rep.bootstrap(&cerr_)) std::abort();
            Timer ct;
            if (rep.step() == replicate::TailStatus::kFailed) std::abort();
            catch_up_s = ct.seconds();
            if (rep.applied_epoch() != batches) std::abort();
          }

          s.updates = updates;
          s.work = work;
          s.rounds = rounds;
          s.max_batch_rounds = max_batch_rounds;
          s.metrics = {
              {"lag_p50_us", lag_us.median()},
              {"lag_p99_us", lag_us.percentile(99)},
              {"lag_max_us", lag_us.percentile(100)},
              {"follower_polls", static_cast<double>(follower_polls)},
              {"catch_up_s", catch_up_s},
              {"catch_up_records_per_sec",
               static_cast<double>(batches) / std::max(catch_up_s, 1e-9)},
              {"us_per_update", us_per_update(s.seconds, updates)},
          };
          std::remove(wal.c_str());
          return s;
        });
  }
  ctx.note(
      "two lag regimes: with the primary flat out (pace_us=0) the "
      "follower replays at the same single-matcher speed the primary "
      "settles at, so lag ~ the accumulated backlog (tens of ms over this "
      "segment) and group_commit only shifts when bytes become visible; "
      "with a paced primary the follower is idle-waiting and lag "
      "collapses to poll latency (sub-ms p50) — the steady-state of a "
      "replica keeping up. catch_up_records_per_sec is pure replay and "
      "must not move with either knob; work/rounds are the primary's and "
      "must not move with any replication knob");
}

[[maybe_unused]] const Registrar registrar{
    "replicate", "E22",
    "journal-shipping replication: follower lag distribution vs primary "
    "group-commit cadence and update pacing, plus cold catch-up replay "
    "throughput",
    run};

}  // namespace
}  // namespace pdmm::bench
