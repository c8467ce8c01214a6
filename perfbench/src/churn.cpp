// churn_small_t1 and churn_wide_t4: closed-loop DynamicMatcher::update.
//
// Set-up generates the whole stream (warm-up batches, then one pass of
// timed batches), warms a matcher to steady state and snapshots it. The
// timed segment then runs passes: each pass restores the warm snapshot
// (untimed) and applies the same pass batches, resolving deletions with
// find_edge. Passes repeat until --seconds of batch time are spent, so the
// run's counters are whole passes — identical on every pass, every run with
// the same seed, and every pool size — while the wall time keeps the
// requested length.
#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "baselines/sequential_dynamic.h"
#include "core/matcher.h"
#include "oracle.h"
#include "report.h"
#include "util/sync_point.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using pdmm::Batch;
using pdmm::DynamicMatcher;
using pdmm::EdgeId;

struct Shape {
  pdmm::Vertex n;
  size_t target_edges;
  size_t k;             // batch size of the timed passes
  unsigned threads;     // pool size
  size_t warm_batch;    // batch size while warming up
  size_t warm_updates;  // updates applied before the snapshot
  size_t pass_batches;  // batches per timed pass
};

Shape shape_of(Workload w) {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  if (w == kChurnSmall) {
    // n = 2^13, ~2n live edges: the structures fit in cache.
    return {1u << 13, 1u << 14, 256, 1, 1024, 3u << 14, 400};
  }
  // n = 2^16, ~2n live edges: the working set is far beyond L2.
  return {1u << 16, 1u << 17, 8192, nproc, 8192, 3u << 17, 24};
}

// Everything set-up produces. The stream stays alive: its mirror is the
// oracle's view of the live edge set after the last pass batch.
struct Setup {
  std::unique_ptr<pdmm::ChurnStream> stream;
  std::vector<Batch> warm, pass;
  std::string snapshot;  // warm matcher state
  uint64_t pass_updates = 0, pass_deletions = 0;
  double pregen_s = 0, warm_s = 0;
};

std::vector<EdgeId> resolve(const DynamicMatcher& m, const Batch& b) {
  std::vector<EdgeId> ids;
  ids.reserve(b.deletions.size());
  for (const auto& eps : b.deletions) ids.push_back(m.find_edge(eps));
  return ids;
}

Setup set_up(const Args& args, const Shape& sh, pdmm::ThreadPool& pool) {
  Setup s;
  const auto t0 = Clock::now();
  pdmm::ChurnStream::Options so;
  so.n = sh.n;
  so.target_edges = sh.target_edges;
  so.seed = args.seed * 0x9E3779B97F4A7C15ULL + args.workload;
  s.stream = std::make_unique<pdmm::ChurnStream>(so);
  for (size_t u = 0; u < sh.warm_updates; u += sh.warm_batch) {
    s.warm.push_back(s.stream->next(sh.warm_batch));
  }
  for (size_t i = 0; i < sh.pass_batches; ++i) {
    s.pass.push_back(s.stream->next(sh.k));
    s.pass_updates += s.pass.back().deletions.size() +
                      s.pass.back().insertions.size();
    s.pass_deletions += s.pass.back().deletions.size();
  }
  const auto t1 = Clock::now();
  DynamicMatcher m(matcher_config(), pool);
  for (const Batch& b : s.warm) m.update(resolve(m, b), b.insertions);
  std::ostringstream os;
  if (!m.save(os)) std::abort();
  s.snapshot = os.str();
  const auto t2 = Clock::now();
  s.pregen_s = s_between(t0, t1);
  s.warm_s = s_between(t1, t2);
  return s;
}

// Counters of one pass; equal across passes, runs and pool sizes.
struct PassCounts {
  uint64_t work = 0, rounds = 0;
  pdmm::MatcherStats stats;
  size_t matching_size = 0;
  std::string state;  // save() bytes after the pass

  bool operator==(const PassCounts& o) const {
    const auto& a = stats;
    const auto& b = o.stats;
    return work == o.work && rounds == o.rounds &&
           matching_size == o.matching_size && state == o.state &&
           a.batches == b.batches && a.updates == b.updates &&
           a.rebuilds == b.rebuilds && a.settles == b.settles &&
           a.subsettles == b.subsettles &&
           a.subsubsettles == b.subsubsettles &&
           a.settle_fallbacks == b.settle_fallbacks &&
           a.eager_sweeps == b.eager_sweeps &&
           a.eager_cap_hits == b.eager_cap_hits &&
           a.static_mm_rounds == b.static_mm_rounds &&
           a.edges_lifted == b.edges_lifted &&
           a.edges_kicked == b.edges_kicked &&
           a.temp_deleted == b.temp_deleted && a.reinserted == b.reinserted;
  }
};

struct PassTiming {
  std::vector<double> batch_us;  // resolve + update, per batch
  double loop_s = 0;             // first batch start .. last batch end
  Usage usage0, usage1;          // around the batch loop
};

bool restore(DynamicMatcher& m, const std::string& snapshot) {
  std::istringstream is(snapshot);
  return m.load(is).ok();
}

// Applies the pass batches to a matcher restored to the warm state. With a
// span log, records after the loop one `churn.pass` root span, a
// `churn.batch` child per batch, and the batch's two layer calls below it.
PassCounts run_pass(DynamicMatcher& m, const Setup& s, PassTiming& tm,
                    SpanLog* spans, uint64_t pass_id) {
  PassCounts pc;
  struct Stamps {
    Clock::time_point t0, t1, t2;
  };
  std::vector<Stamps> stamps;
  stamps.reserve(s.pass.size());
  tm.usage0 = Usage::now();
  const auto loop0 = Clock::now();
  for (const Batch& b : s.pass) {
    Stamps st;
    st.t0 = Clock::now();
    const std::vector<EdgeId> ids = resolve(m, b);
    st.t1 = Clock::now();
    const auto res = m.update(ids, b.insertions);
    st.t2 = Clock::now();
    stamps.push_back(st);
    pc.work += res.work;
    pc.rounds += res.rounds;
  }
  const auto loop1 = Clock::now();
  tm.usage1 = Usage::now();
  tm.loop_s = s_between(loop0, loop1);
  for (const Stamps& st : stamps) tm.batch_us.push_back(us_between(st.t0, st.t2));
  if (spans) {
    const int64_t root = spans->add("churn.pass", loop0, loop1, pass_id);
    for (size_t j = 0; j < stamps.size(); ++j) {
      const Stamps& st = stamps[j];
      const int64_t batch = spans->add("churn.batch", st.t0, st.t2, j, root);
      spans->add("graph.find_edge", st.t0, st.t1, j, batch);
      spans->add("core.update", st.t1, st.t2, j, batch);
    }
  }
  pc.stats = m.stats();  // load() reset the cumulative stats
  pc.matching_size = m.matching_size();
  std::ostringstream os;
  if (!m.save(os)) std::abort();
  pc.state = os.str();
  return pc;
}

}  // namespace

int run_churn(const Args& args, Report& rep) {
  const Shape sh = shape_of(args.workload);
  pdmm::ThreadPool pool(sh.threads);

  // A 1-thread run takes its set-ups and passes on each CPU in turn
  // (report.h); a wide run spreads over all of them anyway.
  CpuRotation rot(pool.num_threads() == 1);
  const size_t slots = rot.size();

  std::vector<double> setup_s, pregen_s, warm_s;
  Setup s;
  for (size_t i = 0; i < kSetups; ++i) {
    rot.pin(i);
    const auto t0 = Clock::now();
    s = set_up(args, sh, pool);
    setup_s.push_back(s_between(t0, Clock::now()));
    pregen_s.push_back(s.pregen_s);
    warm_s.push_back(s.warm_s);
  }

  print_meta(args,
             {{"pool_threads", std::to_string(pool.num_threads())},
              {"cpu_slots", std::to_string(slots)},
              {"n", std::to_string(sh.n)},
              {"target_edges", std::to_string(sh.target_edges)},
              {"batch_size", std::to_string(sh.k)},
              {"pass_batches", std::to_string(sh.pass_batches)},
              {"matcher_seed", std::to_string(kMatcherSeed)}});

  std::unique_ptr<SpanLog> spans;
  const auto origin = Clock::now();
  // The isolation prediction, observed in the library rather than assumed:
  // the traced run counts every engine, journal, checkpoint and replica
  // boundary the passes reach, and there must be none.
  std::atomic<uint64_t> sync_events{0};
  if (args.trace) {
    spans = std::make_unique<SpanLog>(origin);
    pdmm::SyncPoints::install([&](const char*, uint64_t) {
      // mo: relaxed — a counter read after the passes on this thread.
      sync_events.fetch_add(1, std::memory_order_relaxed);
      return pdmm::SyncPoints::kProceed;
    });
  }

  DynamicMatcher m(matcher_config(), pool);
  std::vector<double> batch_us, pass_cpu_us;  // batch_us is pass-major
  double timed_s = 0, loop_s = 0, cpu_s = 0;
  uint64_t ctx = 0, passes = 0;
  PassCounts first;
  std::string why;
  while (passes < slots || timed_s < args.seconds) {
    rot.pin(passes);
    if (!rep.check(restore(m, s.snapshot), "warm snapshot did not load")) {
      break;
    }
    PassTiming tm;
    PassCounts pc = run_pass(m, s, tm, spans.get(), passes);
    rep.attempt(s.pass.size());
    for (double us : tm.batch_us) timed_s += us * 1e-6;
    batch_us.insert(batch_us.end(), tm.batch_us.begin(), tm.batch_us.end());
    loop_s += tm.loop_s;
    cpu_s += tm.usage1.cpu_s - tm.usage0.cpu_s;
    pass_cpu_us.push_back(ratio((tm.usage1.cpu_s - tm.usage0.cpu_s) * 1e6,
                                static_cast<double>(s.pass_updates)));
    ctx += tm.usage1.ctx_switches - tm.usage0.ctx_switches;
    if (passes == 0) {
      rep.check(check_matching(m.graph(), m.matching(),
                               s.stream->live().mirror(), &why),
                "final matching: " + why);
      first = std::move(pc);
    } else {
      rep.check(pc == first, "pass " + std::to_string(passes) +
                                 " counters or state differ from pass 0");
    }
    ++passes;
  }
  rot.restore();
  const uint64_t updates = passes * s.pass_updates;
  const uint64_t batches = passes * s.pass.size();
  if (args.trace) {
    pdmm::SyncPoints::clear();
    // mo: relaxed — the hook fired, if at all, on this thread or on pool
    // workers the pool has joined with at the end of every parallel region.
    const uint64_t events = sync_events.load(std::memory_order_relaxed);
    rep.note("sync-point events during the passes: " + std::to_string(events));
    rep.check(events == 0, "the passes reached " + std::to_string(events) +
                               " engine/journal/checkpoint/replica sync points");
  }

  // Determinism across pool sizes: one more pass on the other pool size (1
  // thread for the wide workload, nproc threads for the 1-thread one) must
  // reproduce the timed passes exactly. Its time gives the scaling ratio.
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  pdmm::ThreadPool other_pool(pool.num_threads() == 1 ? nproc : 1);
  const double timed_pass_s = loop_s / static_cast<double>(passes);
  double other_pass_s = 0;
  {
    DynamicMatcher mo(matcher_config(), other_pool);
    if (rep.check(restore(mo, s.snapshot), "snapshot did not load")) {
      PassTiming tmo;
      const PassCounts pco = run_pass(mo, s, tmo, nullptr, 0);
      rep.check(pco == first,
                "the " + std::to_string(other_pool.num_threads()) +
                    "-thread pass differs from the " +
                    std::to_string(pool.num_threads()) + "-thread passes");
      other_pass_s = tmo.loop_s;
    }
  }
  // Pass time on 1 thread over pass time on nproc threads.
  const double scaling = pool.num_threads() == 1
                             ? ratio(timed_pass_s, other_pass_s)
                             : ratio(other_pass_s, timed_pass_s);

  // Every pass replays the same batches, so batch j's times across passes
  // are repeated measurements of one piece of work; a pass costs the sum of
  // its batches' undisturbed times (report.h).
  const size_t nb = s.pass.size();
  std::vector<double> batch_fast_us(nb);
  double pass_fast_s = 0;
  for (size_t j = 0; j < nb; ++j) {
    std::vector<double> times;
    for (size_t i = j; i < batch_us.size(); i += nb) times.push_back(batch_us[i]);
    batch_fast_us[j] = undisturbed(times);
    pass_fast_s += batch_fast_us[j] * 1e-6;
  }
  std::vector<double> pass_s(passes, 0);
  for (size_t i = 0; i < batch_us.size(); ++i) pass_s[i / nb] += batch_us[i] * 1e-6;
  rep.note("pass time " + std::to_string(pass_fast_s) +
           " s undisturbed, " + std::to_string(percentile(pass_s, 50)) +
           " s median over " + std::to_string(passes) + " passes on " +
           std::to_string(slots) + " CPU slot(s)");
  const double p50 = percentile(batch_fast_us, 50);
  const double p99 = percentile(batch_us, 99);
  const double ups = ratio(static_cast<double>(s.pass_updates), pass_fast_s);
  rep.note("update_p50_us " + std::to_string(p50));
  rep.note("update_p99_us " + std::to_string(p99) + " (whole run)");
  rep.note("passes " + std::to_string(passes) + ", batches " +
           std::to_string(batches) + ", updates " + std::to_string(updates) +
           ", batch time " + std::to_string(timed_s) + " s");

  const pdmm::MatcherStats& st = first.stats;
  rep.count("pass_batches", s.pass.size());
  rep.count("pass_updates", s.pass_updates);
  rep.count("work", first.work);
  rep.count("rounds", first.rounds);
  rep.count("matching_size", first.matching_size);
  rep.count("settles", st.settles);
  rep.count("subsettles", st.subsettles);
  rep.count("subsubsettles", st.subsubsettles);
  rep.count("settle_fallbacks", st.settle_fallbacks);
  rep.count("eager_sweeps", st.eager_sweeps);
  rep.count("eager_cap_hits", st.eager_cap_hits);
  rep.count("static_mm_rounds", st.static_mm_rounds);
  rep.count("edges_lifted", st.edges_lifted);
  rep.count("edges_kicked", st.edges_kicked);
  rep.count("temp_deleted", st.temp_deleted);
  rep.count("reinserted", st.reinserted);
  rep.count("rebuilds", st.rebuilds);

  rep.e2e("setup_s", undisturbed(setup_s));
  rep.e2e("updates_per_s", ups);
  // Process CPU time per update; a busy sibling hyperthread slows the CPU
  // time as much as the wall time.
  rep.e2e("cpu_us_per_update", undisturbed(pass_cpu_us));
  rep.e2e("peak_rss_mb", peak_rss_mb());
  if (!args.trace) return 0;

  // ---- per-layer metrics (traced run) ----
  const double pb = static_cast<double>(s.pass.size());
  const double pu = static_cast<double>(s.pass_updates);
  rep.layer("core.update_us.p50",
            percentile(spans->durations_us("core.update"), 50));
  rep.layer("core.update_us.p99",
            percentile(spans->durations_us("core.update"), 99));
  rep.layer("core.work_per_update", ratio(first.work, pu));
  rep.layer("core.rounds_per_batch", ratio(first.rounds, pb));
  rep.layer("core.settles_per_batch", ratio(st.settles, pb));
  rep.layer("core.subsubsettles_per_settle",
            ratio(st.subsubsettles, st.settles));
  rep.layer("core.lift_yield", ratio(st.edges_lifted, st.subsubsettles));
  rep.layer("core.kicked_per_update", ratio(st.edges_kicked, pu));
  rep.layer("core.reinserted_per_update", ratio(st.reinserted, pu));
  rep.layer("core.eager_sweeps_per_batch", ratio(st.eager_sweeps, pb));
  rep.layer("core.static_mm_rounds_per_batch", ratio(st.static_mm_rounds, pb));
  rep.layer("core.settle_fallbacks", st.settle_fallbacks);
  rep.layer("core.eager_cap_hits", st.eager_cap_hits);
  rep.layer("core.matching_size", first.matching_size);
  double find_us = 0;
  for (double us : spans->durations_us("graph.find_edge")) find_us += us;
  rep.layer("graph.find_edge_ns",
            ratio(find_us * 1e3, static_cast<double>(passes * s.pass_deletions)));
  rep.layer("parallel.work_per_round", ratio(first.work, first.rounds));
  rep.layer("parallel.cpu_per_wall", ratio(cpu_s, loop_s));
  rep.layer("parallel.ctx_switches_per_batch", ratio(ctx, batches));
  rep.layer("parallel.scaling_t4", scaling);
  rep.layer("workload.pregen_s", undisturbed(pregen_s));
  rep.layer("workload.warm_s", undisturbed(warm_s));

  // The loop does nothing but call the two layers, so their spans should
  // tile it; the pass span's self time is the loop's own bookkeeping.
  rep.layer("trace.coverage",
            ratio(spans->union_us({"graph.find_edge", "core.update"}) * 1e-6,
                  loop_s));
  rep.layer("trace.updates_per_s", ups);
  rep.layer("trace.cpu_us_per_update", undisturbed(pass_cpu_us));
  rep.layer("trace.update_p50_us", p50);
  rep.layer("trace.update_p99_us", p99);
  rep.note("self time of churn.pass outside its batches: " +
           std::to_string(spans->self_time_us("churn.pass") * 1e-6) +
           " s of " + std::to_string(loop_s) + " s");

  if (args.workload == kChurnSmall) {
    // Reference: the sequential-dynamic baseline on the same batches.
    pdmm::SequentialDynamicMatcher::Options so;
    so.seed = kMatcherSeed;
    so.initial_capacity = 1ull << 22;
    pdmm::SequentialDynamicMatcher seq(so);
    for (const Batch& b : s.warm) pdmm::apply_batch(seq, b);
    const auto t0 = Clock::now();
    for (const Batch& b : s.pass) pdmm::apply_batch(seq, b);
    const double seq_s = s_between(t0, Clock::now());
    std::vector<EdgeId> seq_matched;
    for (EdgeId e : seq.graph().all_edges()) {
      if (seq.is_matched(e)) seq_matched.push_back(e);
    }
    rep.check(check_matching(seq.graph(), seq_matched,
                             s.stream->live().mirror(), &why),
              "sequential baseline matching: " + why);
    const double seq_us = ratio(seq_s * 1e6, pu);
    rep.layer("ref.sequential_us_per_update", seq_us);
    rep.layer("ref.pdmm_over_sequential",
              ratio(ratio(pass_fast_s * 1e6, pu), seq_us));
  }
  const std::string path = args.work_dir + "/spans.jsonl";
  if (!spans->write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 3;
  }
  rep.note(std::to_string(spans->size()) + " spans written to " + path);
  return 0;
}

}  // namespace perfbench
