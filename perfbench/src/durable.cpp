// durable_serve: small batches sent open loop at a fixed offered rate into
// a pipelined UpdateEngine that journals with fsync and group commit,
// checkpoints periodically and publishes a view per epoch, while one
// reader thread leases views in a closed loop and one live ReplicaEngine
// follower tails the journal. After the run, persist::recover is timed on
// the files the run left behind.
//
// Every batch is timed from the moment it was due (open loop), so a stall
// also charges the batches queued behind it; the generator's own lateness
// is reported separately as workload.late_p99_us. While the engine keeps up
// with the offered load, the delivered rate is the offered rate; what the
// engine decides is the CPU time its stage threads spend per update.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <filesystem>
#include <sstream>
#include <thread>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "oracle.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "replicate/replica_engine.h"
#include "report.h"
#include "serve/view_service.h"
#include "util/backoff.h"
#include "util/rng.h"
#include "util/sync_point.h"
#include "workload/generators.h"

namespace perfbench {

namespace {

using pdmm::Batch;
using pdmm::DynamicMatcher;

constexpr pdmm::Vertex kN = 1u << 13;
constexpr size_t kTargetEdges = 1u << 14;
constexpr size_t kBatch = 64;
constexpr size_t kWarmBatch = 1024;
constexpr size_t kWarmUpdates = 3u << 14;
// Offered load: half of what group commit sustains when the shared disk is
// slow (README.md, "Offered rate and checkpoint cadence").
constexpr double kOfferedRate = 500;
// Checkpoint epochs are well under 1% of all epochs, so they and the few
// epochs queued behind them sit beyond the 99th percentile of published
// latency (and inside a minority of the latency windows).
constexpr uint64_t kCheckpointEvery = 2500;
// Latency is summarized per window of this many epochs (report.h).
constexpr size_t kWindowEpochs = 500;
constexpr size_t kGroupCommit = 4;
constexpr size_t kQueriesPerLease = 256;
constexpr uint64_t kTimeEveryNthLease = 64;

std::string state_bytes(const DynamicMatcher& m) {
  std::ostringstream os;
  if (!m.save(os)) return "<save failed>";
  return os.str();
}

uint64_t file_size(const std::string& path) {
  std::error_code ec;
  const auto sz = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<uint64_t>(sz);
}

// Everything set-up builds: the generated stream, the warm primary, its
// bootstrap checkpoint and fresh journal, and the bootstrapped follower.
struct Setup {
  std::unique_ptr<pdmm::ChurnStream> stream;
  std::vector<Batch> timed;
  uint64_t updates = 0;
  std::unique_ptr<pdmm::ThreadPool> pool, fpool;
  std::unique_ptr<DynamicMatcher> m, fm;
  std::unique_ptr<pdmm::persist::Journal> journal;
  std::unique_ptr<pdmm::replicate::ReplicaEngine> follower;
  uint64_t base_epoch = 0;
  double pregen_s = 0, warm_s = 0, bootstrap_s = 0;
};

bool set_up(const Args& args, const std::string& dir, size_t batches,
            Setup& s, std::string* err) {
  s = Setup{};
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    *err = "cannot create " + dir;
    return false;
  }
  const auto t0 = Clock::now();
  pdmm::ChurnStream::Options so;
  so.n = kN;
  so.target_edges = kTargetEdges;
  so.seed = args.seed * 0x9E3779B97F4A7C15ULL + args.workload;
  s.stream = std::make_unique<pdmm::ChurnStream>(so);
  std::vector<Batch> warm;
  for (size_t u = 0; u < kWarmUpdates; u += kWarmBatch) {
    warm.push_back(s.stream->next(kWarmBatch));
  }
  for (size_t i = 0; i < batches; ++i) {
    s.timed.push_back(s.stream->next(kBatch));
    s.updates += s.timed.back().deletions.size() +
                 s.timed.back().insertions.size();
  }
  const auto t1 = Clock::now();
  s.pool = std::make_unique<pdmm::ThreadPool>(1);
  s.m = std::make_unique<DynamicMatcher>(matcher_config(), *s.pool);
  for (const Batch& b : warm) s.m->update_by_endpoints(b.deletions, b.insertions);
  s.base_epoch = s.m->batch_epoch();
  const auto t2 = Clock::now();
  // Bootstrap: the checkpoint the follower starts from, a fresh journal
  // that continues at the next epoch, and the follower itself.
  const std::string prefix = dir + "/ck";
  if (!pdmm::persist::write_checkpoint_series(prefix, *s.m, 3, err,
                                               /*durable=*/true)) {
    return false;
  }
  pdmm::persist::Journal::Options jo;
  jo.fsync_each = true;
  s.journal = pdmm::persist::Journal::open(dir + "/journal", jo, err);
  if (!s.journal) return false;
  const auto t3 = Clock::now();
  s.fpool = std::make_unique<pdmm::ThreadPool>(1);
  s.fm = std::make_unique<DynamicMatcher>(matcher_config(), *s.fpool);
  pdmm::replicate::ReplicaOptions ro;
  ro.journal_path = dir + "/journal";
  ro.checkpoint_prefix = prefix;
  s.follower = std::make_unique<pdmm::replicate::ReplicaEngine>(*s.fm, nullptr,
                                                                ro);
  if (!s.follower->bootstrap(err)) return false;
  const auto t4 = Clock::now();
  s.pregen_s = s_between(t0, t1);
  s.warm_s = s_between(t1, t2);
  s.bootstrap_s = s_between(t3, t4);
  return true;
}

struct Event {
  const char* point;
  uint64_t arg;
  Clock::time_point t;
};

bool is(const Event& ev, const char* point) {
  return std::strcmp(ev.point, point) == 0;
}

// What the reader thread saw.
struct ReaderStats {
  uint64_t leases = 0, queries = 0;
  uint64_t invalid = 0, regressions = 0;
  uint64_t max_staleness = 0, max_views_live = 0;
  std::string first_error;
  std::vector<double> acquire_ns, query_block_ns;
  uint64_t timed_queries = 0;
  uint64_t checksum = 0;
  double cpu_s = 0;  // the thread's CPU time when it ended
};

void reader_loop(pdmm::MatchViewService& svc, uint64_t seed,
                 const std::atomic<bool>& stop, ReaderStats& rs,
                 SpanLog* spans) {
  // Background priority: the reader soaks up spare CPU without queueing
  // ahead of the engine's stage threads, so it measures the read capacity
  // left over while the update path keeps its latency.
  setpriority(PRIO_PROCESS, static_cast<id_t>(gettid()), 10);
  pdmm::Xoshiro256 rng(seed);
  uint64_t last_epoch = 0;
  // mo: relaxed — a stop flag; the join that follows orders everything.
  while (!stop.load(std::memory_order_relaxed)) {
    const bool timed = rs.leases % kTimeEveryNthLease == 0;
    const auto a0 = Clock::now();
    pdmm::ViewHandle h = svc.acquire();
    const auto a1 = Clock::now();
    ++rs.leases;
    if (!h) continue;
    if (h->epoch < last_epoch) {
      ++rs.regressions;
      if (rs.first_error.empty()) {
        rs.first_error = "leased epoch " + std::to_string(h->epoch) +
                         " after epoch " + std::to_string(last_epoch);
      }
    } else if (h->epoch > last_epoch) {
      std::string err;
      if (!h->validate(&err)) {
        ++rs.invalid;
        if (rs.first_error.empty()) rs.first_error = err;
      }
      last_epoch = h->epoch;
    }
    rs.max_staleness =
        std::max(rs.max_staleness, svc.published_epoch() - h->epoch);
    const auto& ch = svc.channel();
    rs.max_views_live = std::max(rs.max_views_live,
                                 ch.published_count() - ch.freed_count());
    const auto q0 = Clock::now();
    for (size_t q = 0; q < kQueriesPerLease; ++q) {
      const auto v = static_cast<pdmm::Vertex>(rng() % kN);
      const pdmm::EdgeId e = h->matched_edge_of(v);
      if (e != pdmm::kNoEdge && h->is_matched(e)) ++rs.checksum;
    }
    const auto q1 = Clock::now();
    rs.queries += kQueriesPerLease;
    if (timed) {
      rs.acquire_ns.push_back(us_between(a0, a1) * 1e3);
      rs.query_block_ns.push_back(us_between(q0, q1) * 1e3);
      rs.timed_queries += kQueriesPerLease;
      if (spans) {
        spans->add("serve.acquire", a0, a1, h->epoch);
        spans->add("serve.queries", q0, q1, h->epoch);
      }
    }
  }
}

// What the follower thread saw.
struct FollowerStats {
  std::vector<Clock::time_point> applied_at;  // by epoch - base - 1
  uint64_t record_steps = 0, idle_steps = 0, records = 0;
  uint64_t max_bytes_behind = 0;
  std::vector<double> step_us;
  std::string error;
  double cpu_s = 0;  // the thread's CPU time when it ended
};

void follower_loop(pdmm::replicate::ReplicaEngine& rep, uint64_t base,
                   uint64_t final_epoch, Clock::time_point deadline,
                   FollowerStats& fs, SpanLog* spans) {
  pdmm::util::Backoff::Options bo;
  bo.initial_us = 50;
  bo.max_us = 1000;
  pdmm::util::Backoff poll(bo);
  fs.applied_at.resize(final_epoch - base);
  uint64_t applied = rep.applied_epoch();
  while (applied < final_epoch) {
    const auto t0 = Clock::now();
    const auto st = rep.step();
    const auto t1 = Clock::now();
    fs.max_bytes_behind =
        std::max(fs.max_bytes_behind, rep.tailer().bytes_behind());
    if (st == pdmm::replicate::TailStatus::kFailed) {
      fs.error = rep.error();
      return;
    }
    if (st == pdmm::replicate::TailStatus::kRecord) {
      const uint64_t now_applied = rep.applied_epoch();
      for (uint64_t e = applied + 1; e <= now_applied; ++e) {
        fs.applied_at[e - base - 1] = t1;
      }
      ++fs.record_steps;
      fs.records += now_applied - applied;
      fs.step_us.push_back(us_between(t0, t1));
      if (spans) spans->add("replicate.step", t0, t1, now_applied);
      applied = now_applied;
      poll.reset();
      continue;
    }
    ++fs.idle_steps;
    if (t1 > deadline) {
      fs.error = "follower stuck at epoch " + std::to_string(applied) +
                 " of " + std::to_string(final_epoch);
      return;
    }
    poll.sleep();
  }
}

}  // namespace

int run_durable(const Args& args, Report& rep) {
  const std::string dir = args.work_dir + "/durable";
  // The journal and checkpoints are only needed until recovery is timed.
  struct RemoveOnExit {
    std::string path;
    ~RemoveOnExit() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  } cleanup{dir};
  const size_t batches = static_cast<size_t>(kOfferedRate * args.seconds);
  const double period_s = 1.0 / kOfferedRate;

  // Set-ups rotate over the CPUs (report.h); the timed segment's threads
  // float freely.
  CpuRotation rot(/*enabled=*/true);
  std::vector<double> setup_s, pregen_s, warm_s, bootstrap_s;
  Setup s;
  for (size_t i = 0; i < kSetups; ++i) {
    rot.pin(i);
    std::string err;
    const auto t0 = Clock::now();
    if (!set_up(args, dir, batches, s, &err)) {
      std::fprintf(stderr, "perfbench: durable_serve set-up failed: %s\n",
                   err.c_str());
      return 3;
    }
    setup_s.push_back(s_between(t0, Clock::now()));
    pregen_s.push_back(s.pregen_s);
    warm_s.push_back(s.warm_s);
    bootstrap_s.push_back(s.bootstrap_s);
  }
  rot.restore();
  const uint64_t base = s.base_epoch;
  const uint64_t final_epoch = base + batches;
  const std::string journal_path = dir + "/journal";
  const std::string prefix = dir + "/ck";

  print_meta(args,
             {{"primary_pool_threads", std::to_string(s.pool->num_threads())},
              {"follower_pool_threads", std::to_string(s.fpool->num_threads())},
              {"reader_threads", "1"},
              {"offered_rate_epochs_per_s", std::to_string(kOfferedRate)},
              {"batch_size", std::to_string(kBatch)},
              {"epochs", std::to_string(batches)},
              {"group_commit", std::to_string(kGroupCommit)},
              {"checkpoint_every", std::to_string(kCheckpointEvery)},
              {"journal_fs", filesystem_type(dir)},
              {"n", std::to_string(kN)},
              {"matcher_seed", std::to_string(kMatcherSeed)}});

  std::unique_ptr<SpanLog> spans;
  const auto origin = Clock::now();
  std::mutex ev_mu;
  std::vector<Event> events;
  if (args.trace) {
    spans = std::make_unique<SpanLog>(origin);
    events.reserve(batches * 12 + 1024);
    // Installed only in the traced run, before any engine thread exists.
    pdmm::SyncPoints::install([&](const char* point, uint64_t arg) {
      const auto t = Clock::now();
      std::lock_guard<std::mutex> lk(ev_mu);
      events.push_back({point, arg, t});
      return pdmm::SyncPoints::kProceed;
    });
  }

  DynamicMatcher& m = *s.m;
  // This thread owns the matcher until the engine starts.
  m.updater_role().assert_held();
  const pdmm::MatcherStats stats0 = m.stats();
  const pdmm::CostCounters cost0 = m.cost();

  pdmm::MatchViewService::Options vo;
  vo.max_readers = 8;
  vo.install_hook = false;  // the engine publishes
  pdmm::MatchViewService svc(m, vo);

  // Stamped on the committing (journal stage) thread, read after the
  // engine has joined it.
  std::vector<Clock::time_point> durable_at(batches);
  uint64_t durable_mark = base, commits = 0;
  pdmm::engine::UpdateEngine::Options eo;
  eo.pipelined = true;
  eo.group_commit = kGroupCommit;
  eo.checkpoint_every = kCheckpointEvery;
  eo.checkpoint_keep = 3;
  eo.checkpoint_durable = true;
  eo.checkpoint_prefix = prefix;
  eo.record_latency = true;
  eo.on_durable = [&](uint64_t e) {
    const auto now = Clock::now();
    for (; durable_mark < e && durable_mark < final_epoch; ++durable_mark) {
      durable_at[durable_mark - base] = now;
    }
    ++commits;
  };

  std::vector<double> late_us(batches), submit_us;
  submit_us.reserve(batches);
  // The engine's CPU time: the process's CPU time minus that of the
  // generator (this thread), the reader and the follower leaves the
  // engine's three stage threads, the only other threads alive.
  double engine_cpu_s = 0;
  uint64_t backlog_max = 0;
  std::atomic<bool> stop_reader{false};
  ReaderStats rs;
  FollowerStats fs;
  const Usage u0 = Usage::now();
  Clock::time_point t_start, t_end;
  std::vector<pdmm::engine::LatencySample> samples;
  {
    pdmm::engine::UpdateEngine eng(m, &svc, s.journal.get(), eo);
    t_start = Clock::now() + std::chrono::milliseconds(5);
    const double cpu0 = process_cpu_s() - this_thread_cpu_s();
    // Each thread leaves its CPU time behind when it ends.
    std::thread reader([&] {
      reader_loop(svc, args.seed + 17, stop_reader, rs, spans.get());
      rs.cpu_s = this_thread_cpu_s();
    });
    std::thread follower([&] {
      follower_loop(*s.follower, base, final_epoch,
                    t_start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(
                                      args.seconds + 60)),
                    fs, spans.get());
      fs.cpu_s = this_thread_cpu_s();
    });
    for (size_t i = 0; i < batches; ++i) {
      const auto due =
          t_start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(period_s * i));
      std::this_thread::sleep_until(due);
      const auto c0 = Clock::now();
      late_us[i] = us_between(due, c0);
      backlog_max = std::max(backlog_max,
                             eng.submitted_epoch() - eng.retired_epoch());
      const bool ok = eng.submit(std::move(s.timed[i]));
      const auto c1 = Clock::now();
      submit_us.push_back(us_between(c0, c1));
      if (!rep.check(ok, "submit refused: " + eng.error())) break;
    }
    rep.check(eng.stop(), "engine stopped with error: " + eng.error());
    t_end = Clock::now();
    samples = eng.latency_samples();
    // mo: relaxed — see reader_loop.
    stop_reader.store(true, std::memory_order_relaxed);
    reader.join();
    follower.join();
    engine_cpu_s =
        process_cpu_s() - this_thread_cpu_s() - rs.cpu_s - fs.cpu_s - cpu0;
  }
  const Usage u1 = Usage::now();
  if (args.trace) pdmm::SyncPoints::clear();

  // ---- correctness ----
  std::string why;
  rep.check(m.batch_epoch() == final_epoch,
            "primary reached epoch " + std::to_string(m.batch_epoch()));
  rep.check(check_matching(m.graph(), m.matching(), s.stream->live().mirror(),
                           &why),
            "final matching: " + why);
  rep.attempt(rs.leases);
  for (uint64_t i = 0; i < rs.invalid + rs.regressions; ++i) {
    rep.fail("leased view: " + rs.first_error);
  }
  rep.check(fs.error.empty() && !s.follower->failed(),
            "follower: " + fs.error);
  const std::string primary_state = state_bytes(m);
  rep.check(state_bytes(*s.fm) == primary_state,
            "follower state differs from the primary's final state");

  pdmm::ThreadPool rpool(1);
  DynamicMatcher rm(matcher_config(), rpool);
  pdmm::persist::RecoveryOptions ro;
  ro.checkpoint_prefix = prefix;
  ro.journal_path = journal_path;
  const auto r0 = Clock::now();
  const pdmm::persist::RecoveryReport rr = pdmm::persist::recover(rm, ro);
  const double recover_s = s_between(r0, Clock::now());
  rep.check(rr.ok && rr.final_epoch == final_epoch,
            "recovery: " + (rr.ok ? "stopped at epoch " +
                                        std::to_string(rr.final_epoch)
                                  : rr.error));
  rep.check(state_bytes(rm) == primary_state,
            "recovered state differs from the primary's final state");

  // ---- end-to-end ----
  std::vector<double> durable_us, published_us, lag_us;
  for (const auto& smp : samples) {
    if (smp.epoch <= base || smp.epoch > final_epoch) continue;
    const double late = late_us[smp.epoch - base - 1];
    durable_us.push_back(late + smp.durable_us);
    published_us.push_back(late + smp.published_us);
  }
  // The follower may apply a record after the commit's fflush but before
  // its fsync returns and on_durable stamps it: such a lag is negative and
  // kept as measured.
  uint64_t early_applies = 0;
  for (uint64_t i = 0; i < batches && i < fs.applied_at.size(); ++i) {
    lag_us.push_back(us_between(durable_at[i], fs.applied_at[i]));
    if (lag_us.back() < 0) ++early_applies;
  }
  const double seg_s = s_between(t_start, t_end);
  const double ups = ratio(static_cast<double>(s.updates), seg_s);
  const double p50 = window_typical(published_us, kWindowEpochs, 50);
  const double p99 = percentile(published_us, 99);
  rep.e2e("setup_s", undisturbed(setup_s));
  // The delivered rate: the offered rate while the engine keeps up.
  rep.e2e("updates_per_s", ups);
  const double cpu_per_update =
      ratio(engine_cpu_s * 1e6, static_cast<double>(s.updates));
  rep.e2e("cpu_us_per_update", cpu_per_update);
  rep.e2e("peak_rss_mb", peak_rss_mb());
  const double reader_qps = ratio(static_cast<double>(rs.queries), seg_s);
  // The durable-path outcomes, printed in every run (per-layer table in the
  // traced run).
  rep.note("update_p50_us " + std::to_string(p50) +
           " (due -> published, typical over 500-epoch windows)");
  rep.note("published_p99_us " + std::to_string(p99) +
           " (whole run; too noisy on a shared machine to bound)");
  rep.note("durable_p50_us " + std::to_string(percentile(durable_us, 50)) +
           ", durable_p99_us " + std::to_string(percentile(durable_us, 99)));
  rep.note("replica_lag_p50_us " + std::to_string(percentile(lag_us, 50)) +
           ", replica_lag_p99_us " + std::to_string(percentile(lag_us, 99)) +
           "; " + std::to_string(early_applies) + " of " +
           std::to_string(lag_us.size()) +
           " epochs applied before on_durable stamped them (negative lag)");
  rep.note("engine CPU " + std::to_string(engine_cpu_s) + " s; reader " +
           std::to_string(rs.cpu_s) + " s, follower " +
           std::to_string(fs.cpu_s) + " s");
  rep.note("reader_queries_per_s " + std::to_string(reader_qps) +
           ", recover_s " + std::to_string(recover_s));
  rep.note("commits " + std::to_string(commits) + ", checkpoints "
           "verified by the follower " +
           std::to_string(s.follower->health().checkpoints_verified));

  // ---- deterministic counts ----
  const pdmm::MatcherStats& st1 = m.stats();
  pdmm::MatcherStats st;
  st.settles = st1.settles - stats0.settles;
  st.subsubsettles = st1.subsubsettles - stats0.subsubsettles;
  st.settle_fallbacks = st1.settle_fallbacks - stats0.settle_fallbacks;
  st.eager_sweeps = st1.eager_sweeps - stats0.eager_sweeps;
  st.eager_cap_hits = st1.eager_cap_hits - stats0.eager_cap_hits;
  st.static_mm_rounds = st1.static_mm_rounds - stats0.static_mm_rounds;
  st.edges_lifted = st1.edges_lifted - stats0.edges_lifted;
  st.edges_kicked = st1.edges_kicked - stats0.edges_kicked;
  st.reinserted = st1.reinserted - stats0.reinserted;
  const uint64_t work = m.cost().work - cost0.work;
  const uint64_t rounds = m.cost().rounds - cost0.rounds;
  const uint64_t journal_bytes = file_size(journal_path);
  rep.count("epochs", batches);
  rep.count("updates", s.updates);
  rep.count("work", work);
  rep.count("rounds", rounds);
  rep.count("matching_size", m.matching_size());
  rep.count("settles", st.settles);
  rep.count("subsubsettles", st.subsubsettles);
  rep.count("settle_fallbacks", st.settle_fallbacks);
  rep.count("eager_sweeps", st.eager_sweeps);
  rep.count("eager_cap_hits", st.eager_cap_hits);
  rep.count("static_mm_rounds", st.static_mm_rounds);
  rep.count("edges_lifted", st.edges_lifted);
  rep.count("edges_kicked", st.edges_kicked);
  rep.count("reinserted", st.reinserted);
  rep.count("journal_bytes", journal_bytes);
  rep.count("final_epoch", m.batch_epoch());

  if (!args.trace) return 0;

  // ---- per-layer metrics (traced run) ----
  const double nb = static_cast<double>(batches);
  const double nu = static_cast<double>(s.updates);
  rep.layer("core.work_per_update", ratio(work, nu));
  rep.layer("core.rounds_per_batch", ratio(rounds, nb));
  rep.layer("core.settles_per_batch", ratio(st.settles, nb));
  rep.layer("core.subsubsettles_per_settle",
            ratio(st.subsubsettles, st.settles));
  rep.layer("core.lift_yield", ratio(st.edges_lifted, st.subsubsettles));
  rep.layer("core.kicked_per_update", ratio(st.edges_kicked, nu));
  rep.layer("core.reinserted_per_update", ratio(st.reinserted, nu));
  rep.layer("core.eager_sweeps_per_batch", ratio(st.eager_sweeps, nb));
  rep.layer("core.static_mm_rounds_per_batch", ratio(st.static_mm_rounds, nb));
  rep.layer("core.settle_fallbacks", st.settle_fallbacks);
  rep.layer("core.eager_cap_hits", st.eager_cap_hits);
  rep.layer("core.matching_size", m.matching_size());
  rep.layer("parallel.work_per_round", ratio(work, rounds));
  rep.layer("parallel.cpu_per_wall", ratio(u1.cpu_s - u0.cpu_s, seg_s));
  rep.layer("parallel.ctx_switches_per_batch",
            ratio(u1.ctx_switches - u0.ctx_switches, nb));
  rep.layer("workload.pregen_s", undisturbed(pregen_s));
  rep.layer("workload.warm_s", undisturbed(warm_s));
  rep.layer("workload.late_p99_us", percentile(late_us, 99));

  // Stage stamps per epoch, from the sync-point events.
  struct Stamps {
    Clock::time_point pre_append, post_append, pre_settle, post_settle,
        pre_publish, post_publish, pre_rename;
  };
  std::vector<Stamps> ep(batches);
  std::vector<double> commit_us;
  Clock::time_point fsync_start{};
  for (const Event& ev : events) {
    if (is(ev, pdmm::kJournalPreFsync)) {
      fsync_start = ev.t;
      continue;
    }
    if (is(ev, pdmm::kEnginePostCommit)) {
      if (fsync_start != Clock::time_point{}) {
        spans->add("persist.commit", fsync_start, ev.t, ev.arg);
        commit_us.push_back(us_between(fsync_start, ev.t));
      }
      fsync_start = {};
      continue;
    }
    if (ev.arg <= base || ev.arg > final_epoch) continue;
    Stamps& x = ep[ev.arg - base - 1];
    if (is(ev, pdmm::kEnginePreAppend)) x.pre_append = ev.t;
    else if (is(ev, pdmm::kEnginePostAppend)) x.post_append = ev.t;
    else if (is(ev, pdmm::kEnginePreSettle)) x.pre_settle = ev.t;
    else if (is(ev, pdmm::kEnginePostSettle)) x.post_settle = ev.t;
    else if (is(ev, pdmm::kEnginePrePublish)) x.pre_publish = ev.t;
    else if (is(ev, pdmm::kEnginePostPublish)) x.post_publish = ev.t;
    else if (is(ev, pdmm::kCheckpointPreRename)) x.pre_rename = ev.t;
  }
  // The engine's own clock for each epoch's blocking path: the generator's
  // lateness plus LatencySample::published_us (submit -> view published).
  std::vector<double> engine_path_us(batches, 0);
  for (const auto& smp : samples) {
    if (smp.epoch <= base || smp.epoch > final_epoch) continue;
    engine_path_us[smp.epoch - base - 1] =
        late_us[smp.epoch - base - 1] + smp.published_us;
  }
  // One root span per epoch over its blocking path (due -> published),
  // with a child per stage between consecutive sync-point stamps.
  double path_us = 0, covered_us = 0;
  std::vector<double> ck_write_us;
  for (size_t i = 0; i < batches; ++i) {
    const Stamps& x = ep[i];
    const uint64_t e = base + i + 1;
    const auto due = t_start + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(period_s * i));
    const auto call = due + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::micro>(
                                    late_us[i]));
    const auto returned =
        call + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double, std::micro>(submit_us[i]));
    const int64_t root = spans->add("engine.epoch", due, x.post_publish, e);
    const std::pair<const char*, std::pair<Clock::time_point,
                                           Clock::time_point>>
        kids[] = {
            {"workload.late", {due, call}},
            {"engine.submit", {call, returned}},
            {"engine.J.queue_wait", {returned, x.pre_append}},
            {"persist.append", {x.pre_append, x.post_append}},
            {"engine.S.queue_wait", {x.post_append, x.pre_settle}},
            {"engine.S.settle", {x.pre_settle, x.post_settle}},
            {"engine.S.capture", {x.post_settle, x.pre_publish}},
            {"engine.P.publish", {x.pre_publish, x.post_publish}},
        };
    // Coverage: the union of the stage spans against the engine's own
    // measure of the same path. A boundary the hook missed leaves a gap
    // (below 1); a stamp out of place stretches a span (above 1).
    std::vector<std::pair<Clock::time_point, Clock::time_point>> path;
    for (const auto& [name, iv] : kids) {
      const auto end = std::max(iv.first, iv.second);
      spans->add(name, iv.first, end, e, root);
      path.push_back({iv.first, end});
    }
    std::sort(path.begin(), path.end());
    Clock::time_point reach = path.front().first;
    for (const auto& [a, b] : path) {
      if (b > reach) covered_us += us_between(std::max(a, reach), b);
      reach = std::max(reach, b);
    }
    path_us += engine_path_us[i];
    if (x.pre_rename != Clock::time_point{}) {
      spans->add("engine.P.checkpoint_write", x.post_publish, x.pre_rename, e);
      ck_write_us.push_back(us_between(x.post_publish, x.pre_rename));
    }
  }
  const auto p50_of = [&](const char* name) {
    return percentile(spans->durations_us(name), 50);
  };
  const auto p99_of = [&](const char* name) {
    return percentile(spans->durations_us(name), 99);
  };
  rep.layer("persist.append_us.p50", p50_of("persist.append"));
  rep.layer("persist.commit_us.p50", percentile(commit_us, 50));
  rep.layer("persist.commit_us.p99", percentile(commit_us, 99));
  rep.layer("persist.group_size.mean", ratio(nb, commits));
  rep.layer("persist.fsyncs_per_batch", ratio(commits, nb));
  rep.layer("persist.journal_bytes_per_update", ratio(journal_bytes, nu));
  const auto cks = pdmm::persist::list_checkpoints(prefix);
  rep.layer("persist.checkpoint_bytes",
            cks.empty() ? 0 : file_size(cks.front().second));
  rep.layer("persist.durable_p50_us", percentile(durable_us, 50));
  rep.layer("persist.durable_p99_us", percentile(durable_us, 99));
  rep.layer("persist.recover_s", recover_s);

  // Recovery, step by step through the same public calls recover() makes.
  {
    const auto c0 = Clock::now();
    pdmm::persist::CheckpointData ck;
    std::string err;
    const bool ck_ok = !cks.empty() &&
                       pdmm::persist::read_checkpoint_file(cks.front().second,
                                                           ck, &err);
    const auto c1 = Clock::now();
    pdmm::ThreadPool lpool(1);
    DynamicMatcher lm(matcher_config(), lpool);
    std::istringstream is(ck.snapshot);
    const bool load_ok = ck_ok && lm.load(is).ok();
    const auto c2 = Clock::now();
    const auto scan =
        pdmm::persist::scan_journal(journal_path, true, ck.epoch());
    const auto c3 = Clock::now();
    for (const auto& rec : scan.records) {
      lm.update_by_endpoints(rec.batch.deletions, rec.batch.insertions);
    }
    const auto c4 = Clock::now();
    rep.check(load_ok && scan.ok && state_bytes(lm) == primary_state,
              "step-by-step recovery differs from the primary's state");
    const double parts_s = s_between(c0, c4);
    rep.layer("persist.recover.checkpoint_read_ms", s_between(c0, c1) * 1e3);
    rep.layer("persist.recover.snapshot_load_ms", s_between(c1, c2) * 1e3);
    rep.layer("persist.recover.journal_scan_ms", s_between(c2, c3) * 1e3);
    rep.layer("persist.recover.replay_ms", s_between(c3, c4) * 1e3);
    rep.layer("persist.recover.coverage", ratio(parts_s, recover_s));
  }

  rep.layer("engine.S.settle_us.p50", p50_of("engine.S.settle"));
  rep.layer("engine.S.settle_us.p99", p99_of("engine.S.settle"));
  rep.layer("engine.S.queue_wait_us.p50", p50_of("engine.S.queue_wait"));
  rep.layer("engine.S.capture_us.p50", p50_of("engine.S.capture"));
  rep.layer("engine.S.capture_us.p99", p99_of("engine.S.capture"));
  rep.layer("engine.P.publish_us.p50", p50_of("engine.P.publish"));
  rep.layer("engine.P.checkpoint_write_us", mean(ck_write_us));
  rep.layer("engine.submit_block_us.p99", percentile(submit_us, 99));
  rep.layer("engine.backlog_max", static_cast<double>(backlog_max));

  rep.layer("serve.acquire_ns.p50", percentile(rs.acquire_ns, 50));
  double qns = 0;
  for (double x : rs.query_block_ns) qns += x;
  rep.layer("serve.query_ns.mean", ratio(qns, rs.timed_queries));
  rep.layer("serve.staleness_epochs.max", rs.max_staleness);
  rep.layer("serve.views_live.max", rs.max_views_live);
  rep.layer("serve.reader_queries_per_s", reader_qps);

  rep.layer("replicate.bootstrap_s", undisturbed(bootstrap_s));
  rep.layer("replicate.step_us.p50", percentile(fs.step_us, 50));
  rep.layer("replicate.records_per_step.mean",
            ratio(fs.records, fs.record_steps));
  rep.layer("replicate.idle_polls_per_record",
            ratio(fs.idle_steps, fs.records));
  rep.layer("replicate.bytes_behind.max", fs.max_bytes_behind);
  rep.layer("replicate.lag_p50_us", percentile(lag_us, 50));
  rep.layer("replicate.lag_p99_us", percentile(lag_us, 99));

  rep.layer("trace.coverage", ratio(covered_us, path_us));
  rep.layer("trace.updates_per_s", ups);
  rep.layer("trace.cpu_us_per_update", cpu_per_update);
  rep.layer("trace.update_p50_us", p50);
  rep.layer("trace.update_p99_us", p99);
  rep.note("self time of engine.epoch outside its stage spans: " +
           std::to_string(spans->self_time_us("engine.epoch")) + " us over " +
           std::to_string(batches) + " epochs");

  const std::string path = args.work_dir + "/spans.jsonl";
  if (!spans->write_jsonl(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
    return 3;
  }
  rep.note(std::to_string(spans->size()) + " spans written to " + path);
  return 0;
}

}  // namespace perfbench
