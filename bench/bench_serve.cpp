// E17: concurrent read-view serving — reader throughput under update churn.
// Readers acquire published MatchViews and run point queries while the
// updater applies batches; acquisition is lock-free and queries are
// wait-free, so aggregate queries/s should scale with the reader count and
// the updater's own throughput (work/rounds counters) should be unaffected
// by however many readers are attached. (The durable-engine latency sweep
// that used to ride along here is its own experiment now:
// bench_engine_latency.cpp, E21.)
#include <atomic>
#include <thread>

#include "bench_common.h"
#include "serve/view_service.h"
#include "util/rng.h"

namespace pdmm::bench {
namespace {

// Query/acquire counts are atomics so the coordinator can snapshot them at
// the timed segment's boundaries while the readers keep running (relaxed:
// the numbers are metrics, not synchronization).
struct alignas(64) ReaderCounters {
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> acquires{0};
  uint64_t staleness_max = 0;  // read only after join
};

void run(Ctx& ctx) {
  const Vertex n = ctx.u32("n", 1 << 13, 1 << 9);
  const uint64_t target = ctx.u64("target_edges", 2ull * n, 2ull * n);
  const uint64_t batches = ctx.u64("batches", 60, 6);
  const uint64_t batch_size = ctx.u64("batch_size", 256, 64);
  const uint64_t queries_per_view = ctx.u64("queries_per_view", 256, 64);
  const size_t warm_updates = ctx.warm(2 * target);

  const std::vector<uint64_t> reader_counts =
      ctx.smoke() ? std::vector<uint64_t>{1, 4}
                  : std::vector<uint64_t>{1, 2, 4, 8};

  ChurnStream::Options so;
  so.n = n;
  so.target_edges = target;
  so.seed = ctx.seed(17);
  require(ctx, ChurnStream::check(so, std::max<size_t>(1024, batch_size)));

  for (const uint64_t readers : reader_counts) {
    ctx.point({p("readers", readers), p("k", batch_size)}, [&] {
      ThreadPool pool(ctx.threads(0));
      DynamicMatcher m(bench_config(ctx, 18), pool);

      ChurnStream stream(so);
      warm(m, stream, warm_updates, 1024);

      MatchViewService::Options sopt;
      sopt.max_readers = static_cast<size_t>(readers) * 2 + 8;
      MatchViewService serve(m, sopt);

      std::atomic<bool> done{false};
      std::atomic<uint64_t> ready{0};
      std::vector<ReaderCounters> counters(readers);
      std::vector<std::thread> threads;
      threads.reserve(readers);
      for (uint64_t r = 0; r < readers; ++r) {
        threads.emplace_back([&, r] {
          Xoshiro256 rng(hash_mix(so.seed, r + 1));
          ReaderCounters& c = counters[r];
          bool announced = false;
          // mo: acquire — pairs with the coordinator's release store; stop
          // is prompt and everything before shutdown is visible.
          while (!done.load(std::memory_order_acquire)) {
            ViewHandle h = serve.acquire();
            if (!h) continue;
            // mo: relaxed — metric counter; snapshots only need eventual
            // values, bounded by the join below.
            c.acquires.fetch_add(1, std::memory_order_relaxed);
            if (!announced) {
              announced = true;
              // mo: release — pairs with the coordinator's acquire spin so
              // the first acquire happens-before the clock starts.
              ready.fetch_add(1, std::memory_order_release);
            }
            c.staleness_max = std::max(c.staleness_max,
                                       serve.published_epoch() - h->epoch);
            const size_t nv = h->vertex_bound();
            for (uint64_t q = 0; q < queries_per_view; ++q) {
              const Vertex v = nv ? static_cast<Vertex>(rng.below(nv)) : 0;
              const EdgeId e = h->matched_edge_of(v);
              if (e != kNoEdge && !h->is_matched(e)) std::abort();
            }
            // mo: relaxed — metric counter (see acquires above).
            c.queries.fetch_add(queries_per_view,
                                std::memory_order_relaxed);
          }
        });
      }

      // Don't start the clock until every reader has acquired once, so
      // short smoke segments still measure concurrent readers rather than
      // thread spin-up.
      // mo: acquire — pairs with each reader's release announce.
      while (ready.load(std::memory_order_acquire) < readers) {
        std::this_thread::yield();
      }
      auto snapshot = [&] {
        uint64_t q = 0, a = 0;
        for (const ReaderCounters& c : counters) {
          // mo: relaxed — metric snapshot; slight skew across readers is
          // acceptable measurement noise.
          q += c.queries.load(std::memory_order_relaxed);
          a += c.acquires.load(std::memory_order_relaxed);
        }
        return std::pair<uint64_t, uint64_t>{q, a};
      };

      // The timed segment is the updater's: its counters stay deterministic
      // (reader activity never feeds back into the matcher), while the
      // aggregate query rate lands in the metrics. Counter snapshots bound
      // the query count to the same segment the seconds cover.
      const std::vector<Batch> segment = take(stream, batches, batch_size);
      const auto [q_before, a_before] = snapshot();
      Sample s = drive(m, segment);
      const auto [q_after, a_after] = snapshot();
      // mo: release — pairs with the readers' acquire load of done.
      done.store(true, std::memory_order_release);
      for (auto& t : threads) t.join();
      // This thread drove every update (it is the channel's single
      // writer), and the readers joined above.
      serve.channel().writer_role().assert_held();
      serve.channel().reclaim();  // readers are gone; drain the retired list

      const uint64_t queries = q_after - q_before;
      const uint64_t acquires = a_after - a_before;
      uint64_t staleness_max = 0;
      for (const ReaderCounters& c : counters) {
        staleness_max = std::max(staleness_max, c.staleness_max);
      }
      s.metrics = {
          {"queries_per_sec",
           static_cast<double>(queries) / std::max(s.seconds, 1e-9)},
          {"queries", static_cast<double>(queries)},
          {"acquires", static_cast<double>(acquires)},
          {"staleness_max", static_cast<double>(staleness_max)},
          {"us_per_update", us_per_update(s.seconds, s.updates)},
          {"views_reclaimed",
           static_cast<double>(serve.channel().freed_count())},
      };
      return s;
    });
  }
  ctx.note(
      "queries/s should grow ~linearly with readers until the cores run "
      "out; work/rounds must not move with the reader count (the update "
      "path never synchronizes with readers)");
}

[[maybe_unused]] const Registrar registrar{
    "serve", "E17",
    "read path: lock-free view acquisition + wait-free queries; reader "
    "throughput scales with reader count while updater counters stay put",
    run};

}  // namespace
}  // namespace pdmm::bench
