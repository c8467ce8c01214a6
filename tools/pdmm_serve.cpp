// pdmm_serve: drives the concurrent read path end-to-end — the update
// stream (generated churn or a replayed trace) runs through the staged
// UpdateEngine (src/engine) against a DynamicMatcher while N reader
// threads answer queries against the published MatchViews, and reports
// reader throughput, view staleness, and per-batch updater latency
// percentiles (submit → durable / published / retired).
//
//   pdmm_serve --readers=4 --n=4096 --batches=500 --batch_size=256
//   pdmm_serve --readers=8 --validate            # validate each new epoch
//   pdmm_serve --trace=trace.txt --readers=4     # replay a recorded trace
//   pdmm_serve --pipeline --journal=wal --fsync --group_commit=8
//              # overlap settle with journal fsync + checkpoint I/O
//
// --pipeline runs the engine's journal/settle/publish stages on their own
// threads; --group_commit=K amortizes one journal fsync over K batches.
// Both modes publish byte-identical views and journal bytes — pipelining
// changes latency, never results.
//
// Durability (src/persist): --journal=FILE appends one checksummed record
// per batch (write-ahead of nothing, behind the in-memory commit — after a
// crash the log holds every flushed batch); --checkpoint=PREFIX
// --checkpoint_every=K writes an atomic checkpoint every K batches and a
// final one at exit; --recover restores checkpoint+journal state *before*
// serving and skips the already-applied prefix of the update stream, so a
// SIGKILLed server restarted with the same flags republishes the same
// MatchView epochs and continues bit-identically:
//
//   pdmm_serve --trace=t.txt --journal=wal --checkpoint=ck
//              --checkpoint_every=100            # ... SIGKILL ...
//   pdmm_serve --trace=t.txt --journal=wal --checkpoint=ck
//              --checkpoint_every=100 --recover  # resumes where durable
//
// Replication (src/replicate): --follow=JOURNAL runs this process as a
// read-only FOLLOWER of a live primary — it bootstraps from the primary's
// checkpoint series (--checkpoint=PREFIX, read-only), then tails the
// primary's journal as it is appended, applying and publishing each
// durable record; readers serve against the follower's views exactly as
// against a primary's. The follower never writes a byte of the primary's
// artifacts, cross-checks its state byte-for-byte against every primary
// checkpoint it passes (divergence halts loudly), and prints health/lag
// lines (--health_every_ms). With --promote=SEGMENT, once the tail goes
// quiet for --idle_exit_ms the follower promotes: drains the tail, writes
// a promotion checkpoint into the series, opens SEGMENT as a fresh
// journal, and continues serving the REMAINDER of the update stream as
// the writing primary:
//
//   # terminal 1 (primary):
//   pdmm_serve --trace=t.txt --journal=wal --checkpoint=ck
//              --checkpoint_every=100 --throttle_us=2000
//   # terminal 2 (follower, same workload flags):
//   pdmm_serve --trace=t.txt --follow=wal --checkpoint=ck
//              --promote=wal2 --idle_exit_ms=2000
//
// Each reader loops: acquire the latest view, sample its staleness
// (published epoch minus the view's), run --queries_per_view random
// queries (matched_edge_of / level_of / is_matched round-trips), release,
// repeat. Staleness 0 means the reader got the newest completed batch;
// the updater never waits for readers and readers never wait for the
// updater, so queries/s measures the cost of the read path itself, not
// lock contention.
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "engine/update_engine.h"
#include "persist/checkpoint.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "replicate/replica_engine.h"
#include "serve/view_service.h"
#include "util/arg_parse.h"
#include "util/crc32.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/timer.h"
#include "workload/generators.h"
#include "workload/trace.h"

using namespace pdmm;

namespace {

struct ReaderStats {
  uint64_t queries = 0;
  uint64_t acquires = 0;
  uint64_t epochs_seen = 0;     // distinct epochs this reader observed
  uint64_t staleness_sum = 0;   // sampled at each acquire
  uint64_t staleness_max = 0;
  uint64_t matched_hits = 0;    // queries that found a matched vertex
  bool monotone = true;         // epochs never went backwards
  bool valid = true;            // every validated view passed
  std::string first_error;
};

void reader_loop(MatchViewService& serve, const std::atomic<bool>& done,
                 bool validate, uint64_t queries_per_view, uint64_t seed,
                 ReaderStats& out) {
  Xoshiro256 rng(seed);
  uint64_t last_epoch = 0;
  while (true) {
    // mo: acquire — pairs with main's release store of `done`; everything
    // published before shutdown (the final view) is visible to the drain
    // acquire() below.
    const bool finishing = done.load(std::memory_order_acquire);
    ViewHandle h = serve.acquire();
    if (!h) {
      if (finishing) break;
      continue;
    }
    ++out.acquires;
    const uint64_t epoch = h->epoch;
    if (epoch < last_epoch) out.monotone = false;
    if (epoch != last_epoch || out.epochs_seen == 0) {
      ++out.epochs_seen;
      if (validate) {
        std::string err;
        if (!h->validate(&err)) {
          out.valid = false;
          if (out.first_error.empty()) {
            out.first_error = "epoch " + std::to_string(epoch) + ": " + err;
          }
        }
      }
    }
    last_epoch = epoch;
    const uint64_t published = serve.published_epoch();
    const uint64_t staleness = published - epoch;
    out.staleness_sum += staleness;
    out.staleness_max = std::max(out.staleness_max, staleness);

    const size_t nv = h->vertex_bound();
    for (uint64_t q = 0; q < queries_per_view; ++q) {
      const Vertex v = nv ? static_cast<Vertex>(rng.below(nv)) : 0;
      const EdgeId e = h->matched_edge_of(v);
      if (e != kNoEdge) {
        ++out.matched_hits;
        // Full round-trip: the matched edge must contain v and be listed.
        const auto eps = h->endpoints_of_matched(e);
        if (std::find(eps.begin(), eps.end(), v) == eps.end() ||
            !h->is_matched(e)) {
          out.valid = false;
          if (out.first_error.empty()) {
            out.first_error =
                "epoch " + std::to_string(epoch) + ": vertex " +
                std::to_string(v) + " round-trip failed";
          }
        }
      } else if (h->level_of(v) != kUnmatchedLevel) {
        out.valid = false;
        if (out.first_error.empty()) {
          out.first_error = "epoch " + std::to_string(epoch) +
                            ": unmatched vertex " + std::to_string(v) +
                            " has a level";
        }
      }
      ++out.queries;
    }
    h.release();
    if (finishing) break;
  }
}

}  // namespace

int main(int argc, char** argv) {
  ArgParse args(argc, argv);
  const Vertex n = args.get_u32("n", 1 << 12);
  const uint32_t rank = args.get_u32("rank", 2);
  const uint64_t target = args.get_u64("target_edges", 2 * uint64_t{n});
  const uint64_t batches = args.get_u64("batches", 500);
  const uint64_t batch_size = args.get_u64("batch_size", 256);
  const uint64_t readers = args.get_u64("readers", 4);
  const uint64_t queries_per_view = args.get_u64("queries_per_view", 256);
  const uint64_t seed = args.get_u64("seed", 1);
  const uint32_t threads = args.get_u32("threads", 0);
  const bool validate = args.get_bool("validate", false);
  const std::string trace_path = args.get_string("trace", "");
  const std::string journal_path = args.get_string("journal", "");
  const bool fsync_each = args.get_bool("fsync", false);
  const bool pipeline = args.get_bool("pipeline", false);
  const uint64_t group_commit = args.get_u64("group_commit", 1);
  const std::string checkpoint_prefix = args.get_string("checkpoint", "");
  const uint64_t checkpoint_every = args.get_u64("checkpoint_every", 0);
  const uint64_t checkpoint_keep = args.get_u64("checkpoint_keep", 2);
  const bool recover_first = args.get_bool("recover", false);
  const uint64_t throttle_us = args.get_u64("throttle_us", 0);
  const std::string follow_path = args.get_string("follow", "");
  const std::string promote_path = args.get_string("promote", "");
  const uint64_t follow_until_epoch = args.get_u64("follow_until_epoch", 0);
  const uint64_t idle_exit_ms = args.get_u64("idle_exit_ms", 0);
  const uint64_t health_every_ms = args.get_u64("health_every_ms", 1000);
  args.finish();
  const bool follow_mode = !follow_path.empty();
  if (checkpoint_every != 0 && checkpoint_prefix.empty()) {
    std::cerr << "--checkpoint_every requires --checkpoint=PREFIX\n";
    return 2;
  }
  if (recover_first && checkpoint_prefix.empty() && journal_path.empty()) {
    std::cerr << "--recover requires --checkpoint and/or --journal\n";
    return 2;
  }
  if (follow_mode && !journal_path.empty()) {
    std::cerr << "--follow tails the primary's journal read-only and takes "
                 "no --journal of its own (--promote=SEGMENT names the "
                 "fresh segment a promotion writes)\n";
    return 2;
  }
  if (follow_mode && recover_first) {
    std::cerr << "--follow bootstraps from the primary's checkpoints "
                 "itself; --recover is the primary's restart path\n";
    return 2;
  }
  if (!promote_path.empty() && !follow_mode) {
    std::cerr << "--promote requires --follow\n";
    return 2;
  }
  if (!promote_path.empty() && checkpoint_prefix.empty()) {
    std::cerr << "--promote requires --checkpoint=PREFIX (the promotion "
                 "checkpoint chains the new journal segment onto the dead "
                 "primary's lineage)\n";
    return 2;
  }
  if (!promote_path.empty() && idle_exit_ms == 0 &&
      follow_until_epoch == 0) {
    std::cerr << "--promote needs a takeover trigger: --idle_exit_ms=N "
                 "(promote once the primary's journal goes quiet) and/or "
                 "--follow_until_epoch=N\n";
    return 2;
  }

  // The update stream: a recorded trace, or steady-state churn. Either
  // way it gets a one-line fingerprint — a content hash for a trace, the
  // generating parameters for churn (batch count excluded: a longer run
  // over the same generator is the same stream, just more of it). The
  // fingerprint rides in the journal header and checkpoint meta so a
  // restart with different stream flags is refused at recovery instead of
  // silently diverging from the recovered epoch on.
  std::vector<Batch> trace;
  std::string stream_fp;
  if (!trace_path.empty()) {
    std::ifstream in(trace_path, std::ios::binary);
    if (!in) {
      std::cerr << "cannot open trace " << trace_path << "\n";
      return 1;
    }
    std::ostringstream raw;
    raw << in.rdbuf();
    const std::string bytes = std::move(raw).str();
    stream_fp = "trace crc32=" + std::to_string(crc32(bytes));
    std::istringstream ts(bytes);
    std::string err;
    if (!read_trace(ts, trace, &err)) {
      std::cerr << "invalid trace: " << err << "\n";
      return 1;
    }
  } else {
    ChurnStream::Options so;
    so.n = n;
    so.rank = rank;
    so.target_edges = target;
    so.seed = seed;
    uint64_t total = 0;
    if (__builtin_mul_overflow(batches, batch_size, &total)) total = UINT64_MAX;
    if (const ShapeError e = ChurnStream::check(so, batch_size, total)) {
      args.refuse(e.field, e.why);
    }
    ChurnStream stream(so);
    trace = record_stream(stream, batches, batch_size);
    stream_fp = "churn n=" + std::to_string(n) + " rank=" +
                std::to_string(rank) + " target=" + std::to_string(target) +
                " k=" + std::to_string(batch_size) + " seed=" +
                std::to_string(seed);
  }

  ThreadPool pool(threads);
  Config cfg;
  cfg.max_rank = rank;
  cfg.seed = seed + 1;
  cfg.initial_capacity = 1 << 20;
  DynamicMatcher m(cfg, pool);

  // Recovery runs before the view service exists, so the first published
  // view already carries the recovered epoch.
  size_t skip_batches = 0;
  persist::RecoveryReport rep;
  if (recover_first) {
    persist::RecoveryOptions ropt;
    ropt.checkpoint_prefix = checkpoint_prefix;
    ropt.journal_path = journal_path;
    ropt.expected_stream = stream_fp;
    rep = persist::recover(m, ropt);
    if (!rep.ok) {
      std::cerr << "recovery failed: " << rep.error << "\n";
      return 1;
    }
    std::cout << "recovered: epoch " << rep.final_epoch << " (checkpoint "
              << (rep.checkpoint_path.empty() ? std::string("none")
                                              : rep.checkpoint_path)
              << " @ " << rep.checkpoint_epoch << " + "
              << rep.replayed_batches << " journal batches"
              << (rep.journal.truncated_tail ? ", torn tail dropped" : "")
              << (rep.skipped_checkpoints
                      ? ", " + std::to_string(rep.skipped_checkpoints) +
                            " damaged checkpoint(s) skipped"
                      : "")
              << "), |M|=" << m.matching_size() << "\n";
    if (rep.final_epoch > trace.size()) {
      std::cerr << "recovered epoch " << rep.final_epoch
                << " is beyond the " << trace.size()
                << "-batch update stream (wrong trace for this state?)\n";
      return 1;
    }
    skip_batches = static_cast<size_t>(rep.final_epoch);
  }

  if (!journal_path.empty() || !checkpoint_prefix.empty()) {
    // Printed so an operator can hand it to `pdmm_recover --stream=...`.
    std::cout << "stream: " << stream_fp << "\n";
  }

  std::unique_ptr<persist::Journal> journal;
  if (!journal_path.empty()) {
    persist::Journal::Options jopt;
    jopt.fsync_each = fsync_each;
    jopt.stream = stream_fp;
    std::string jerr;
    journal = persist::open_journal_after_recovery(journal_path, jopt, rep,
                                                   &jerr);
    if (!journal) {
      std::cerr << "cannot open journal: " << jerr << "\n";
      return 1;
    }
    // Single-appender contract: main is the only thread that touches the
    // journal (readers never see it), so it holds the appender role.
    journal->appender_role().assert_held();
    if (journal->last_epoch() > m.batch_epoch()) {
      std::cerr << "journal is ahead of the matcher (epoch "
                << journal->last_epoch() << " > " << m.batch_epoch()
                << "); run with --recover\n";
      return 1;
    }
  }

  MatchViewService::Options sopt;
  sopt.max_readers = static_cast<size_t>(readers) * 2 + 8;
  // The engine owns publication (its publish stage is the channel's
  // single writer), so the service's post-batch hook stays uninstalled.
  // The initial publish (recovered or empty state) still happens here on
  // main, before the engine exists.
  sopt.install_hook = false;
  MatchViewService serve(m, sopt);

  std::atomic<bool> done{false};
  const Timer reader_timer;
  std::vector<ReaderStats> stats(readers);
  std::vector<std::thread> reader_threads;
  reader_threads.reserve(readers);
  for (uint64_t r = 0; r < readers; ++r) {
    reader_threads.emplace_back([&, r] {
      reader_loop(serve, done, validate, queries_per_view,
                  hash_mix(seed, r + 100), stats[r]);
    });
  }

  // ---- Follower phase (--follow) -----------------------------------------
  // Main tails the primary's journal, applying + publishing each durable
  // record, while the readers above serve the follower's views. Ends at
  // --follow_until_epoch, after --idle_exit_ms without progress, or never.
  bool promoted = false;
  replicate::ReplicaHealth follow_health;
  if (follow_mode) {
    const auto reader_bailout = [&](const std::string& why) {
      std::cerr << "FAILED: follower: " << why << "\n";
      // mo: release — same pairing as the normal shutdown below.
      done.store(true, std::memory_order_release);
      for (auto& th : reader_threads) th.join();
      return 1;
    };
    replicate::ReplicaOptions ropts;
    ropts.journal_path = follow_path;
    ropts.checkpoint_prefix = checkpoint_prefix;
    ropts.expected_stream = stream_fp;
    // Poll delays grow from Backoff's 500 us default up to 50 ms.
    ropts.backoff.max_us = 50'000;
    replicate::ReplicaEngine replica(m, &serve, ropts);
    std::string err;
    if (!replica.bootstrap(&err)) return reader_bailout(err);
    std::cout << "follower: bootstrapped at epoch " << m.batch_epoch()
              << ", tailing " << follow_path << "\n";

    Timer since_health;
    const auto print_health = [&](replicate::TailStatus) {
      if (health_every_ms == 0 ||
          since_health.millis() < static_cast<double>(health_every_ms)) {
        return;
      }
      std::cout << "follow: " << replica.health().format() << "\n";
      since_health.reset();
    };
    if (replica.follow({.until_epoch = follow_until_epoch,
                        .idle_ms = idle_exit_ms},
                       print_health) == replicate::TailStatus::kFailed) {
      return reader_bailout(replica.error());
    }
    follow_health = replica.health();
    std::cout << "follow: " << follow_health.format() << "\n";

    if (!promote_path.empty()) {
      replicate::ReplicaEngine::PromoteOptions po;
      po.journal_path = promote_path;
      po.checkpoint_keep = static_cast<size_t>(checkpoint_keep);
      po.fsync = fsync_each;
      if (!replica.promote(po, journal, &err)) return reader_bailout(err);
      promoted = true;
      std::cout << "promoted: epoch " << m.batch_epoch()
                << ", fresh journal segment " << promote_path
                << ", checkpoint " << checkpoint_prefix << "."
                << m.batch_epoch() << "\n";
      if (m.batch_epoch() > trace.size()) {
        return reader_bailout(
            "promoted epoch " + std::to_string(m.batch_epoch()) +
            " is beyond the " + std::to_string(trace.size()) +
            "-batch update stream (wrong trace for this lineage?)");
      }
      // The engine below continues the stream as the writing primary.
      skip_batches = static_cast<size_t>(m.batch_epoch());
    } else {
      skip_batches = trace.size();  // follow-only: nothing left to submit
    }
  }

  // The update path: journal append + group commit, settle, publish, and
  // periodic checkpoints all run inside the UpdateEngine — inline on this
  // thread by default, or overlapped across its stage threads with
  // --pipeline. Either way main stops driving the matcher/journal/channel
  // until the engine is stopped (role handoff for the engine's lifetime).
  engine::UpdateEngine::Options eopt;
  eopt.pipelined = pipeline;
  eopt.group_commit = static_cast<size_t>(group_commit);
  eopt.checkpoint_every = checkpoint_every;
  eopt.checkpoint_keep = static_cast<size_t>(checkpoint_keep);
  eopt.checkpoint_durable = fsync_each;
  eopt.checkpoint_prefix = checkpoint_prefix;
  eopt.stream_fp = stream_fp;
  eopt.record_latency = true;

  Timer t;
  uint64_t updates = 0;
  std::string persist_error;
  std::vector<engine::LatencySample> latency;
  {
    engine::UpdateEngine eng(m, &serve, journal.get(), eopt);
    for (size_t i = skip_batches; i < trace.size(); ++i) {
      const Batch& b = trace[i];
      if (!eng.submit(b)) break;  // durability lost: stop taking updates
      updates += b.deletions.size() + b.insertions.size();
      if (throttle_us != 0) {
        // lint:allow(raw-sleep) fixed --throttle_us pacing between
        // submits, not a retry wait — there is no condition to back off on
        std::this_thread::sleep_for(std::chrono::microseconds(throttle_us));
      }
    }
    if (!eng.stop()) persist_error = eng.error();
    latency = eng.latency_samples();
  }
  // Periodic checkpoints the engine placed: one per multiple of
  // checkpoint_every inside the epoch range this process drove.
  uint64_t checkpoints_written =
      (persist_error.empty() && checkpoint_every != 0 &&
       (!follow_mode || promoted))
          ? m.batch_epoch() / checkpoint_every -
                static_cast<uint64_t>(skip_batches) / checkpoint_every
          : 0;
  // A final checkpoint at shutdown makes a clean restart replay-free —
  // unless the engine just wrote one at this exact epoch. With
  // --checkpoint_every=0 this is the only checkpoint (shutdown-only
  // mode); after a --recover that consumed the whole stream the engine
  // ran zero batches and the final epoch still needs its checkpoint. The
  // engine is stopped, so main owns the matcher again here.
  const bool engine_ck_at_final = checkpoint_every != 0 &&
                                  m.batch_epoch() % checkpoint_every == 0 &&
                                  m.batch_epoch() > skip_batches;
  // A pure follower never writes into the primary's checkpoint series —
  // only a promoted one (now the owner) does.
  if (persist_error.empty() && !checkpoint_prefix.empty() &&
      !engine_ck_at_final && (!follow_mode || promoted)) {
    if (persist::write_checkpoint_series(checkpoint_prefix, m,
                                         checkpoint_keep, &persist_error,
                                         fsync_each, stream_fp)) {
      ++checkpoints_written;
    }
  }
  const double update_secs = t.seconds();
  // mo: release — pairs with the readers' acquire load; the final
  // published view happens-before any reader seeing done==true.
  done.store(true, std::memory_order_release);
  for (auto& th : reader_threads) th.join();
  const double reader_secs = reader_timer.seconds();

  ReaderStats sum;
  bool all_valid = true, all_monotone = true;
  for (uint64_t r = 0; r < readers; ++r) {
    const ReaderStats& s = stats[r];
    std::cout << "reader " << r << ": " << s.queries << " queries, "
              << s.acquires << " acquires, " << s.epochs_seen
              << " epochs, staleness max=" << s.staleness_max << " mean="
              << (s.acquires
                      ? static_cast<double>(s.staleness_sum) /
                            static_cast<double>(s.acquires)
                      : 0.0)
              << (s.monotone ? "" : "  EPOCHS NOT MONOTONE")
              << (s.valid ? "" : "  VALIDATION FAILED") << "\n";
    if (!s.first_error.empty()) {
      std::cout << "  first error: " << s.first_error << "\n";
    }
    sum.queries += s.queries;
    sum.acquires += s.acquires;
    sum.staleness_max = std::max(sum.staleness_max, s.staleness_max);
    all_valid &= s.valid;
    all_monotone &= s.monotone;
  }

  ViewChannel& ch = serve.channel();
  // The engine (the channel's writer while it ran) is stopped and the
  // readers are joined: main is the sole remaining thread, so it holds
  // the writer role for the final reclaim scan.
  ch.writer_role().assert_held();
  ch.reclaim();  // readers are gone: everything but the current view frees
  if (follow_mode) {
    std::cout << "follower: " << follow_health.format()
              << (promoted ? " (promoted to primary)" : "") << "\n";
  }
  std::cout << "engine: " << (pipeline ? "pipelined" : "inline")
            << ", group_commit=" << group_commit << "\n";
  std::cout << "updater: " << (trace.size() - skip_batches)
            << " batches (epoch " << m.batch_epoch() << "), " << updates
            << " updates in " << update_secs << " s ("
            << static_cast<uint64_t>(static_cast<double>(updates) /
                                     std::max(update_secs, 1e-9))
            << " upd/s), |M|=" << m.matching_size() << "\n";
  if (!latency.empty()) {
    PercentileStats durable_us, published_us, retired_us;
    for (const engine::LatencySample& s : latency) {
      if (s.durable_us > 0) durable_us.add(s.durable_us);
      if (s.published_us > 0) published_us.add(s.published_us);
      if (s.retired_us > 0) retired_us.add(s.retired_us);
    }
    auto print_hist = [](const char* name, PercentileStats& st) {
      if (st.count() == 0) return;
      std::cout << "latency " << name << " (us): p50=" << st.median()
                << " p90=" << st.percentile(90) << " p99="
                << st.percentile(99) << " max=" << st.max() << "\n";
    };
    print_hist("published", published_us);
    print_hist("durable", durable_us);
    print_hist("retired", retired_us);
  }
  std::cout << "readers: " << readers << " threads, " << sum.queries
            << " queries in " << reader_secs << " s ("
            << static_cast<uint64_t>(static_cast<double>(sum.queries) /
                                     std::max(reader_secs, 1e-9))
            << " q/s), " << sum.acquires
            << " acquires, staleness max=" << sum.staleness_max << "\n";
  std::cout << "views: " << ch.published_count() << " published, "
            << ch.freed_count() << " reclaimed, " << ch.retired_pending()
            << " pending"
            << (validate ? ", validation on" : "") << "\n";
  if (journal || checkpoints_written) {
    uint64_t journal_records = 0, journal_last = 0;
    if (journal) {
      journal->appender_role().assert_held();  // sole owner; updates done
      journal_records = journal->records_appended();
      journal_last = journal->last_epoch();
    }
    std::cout << "persist: " << journal_records
              << " journal records (last epoch " << journal_last << "), "
              << checkpoints_written << " checkpoints";
    if (fsync_each) {
      std::cout << (group_commit > 1
                        ? ", fsync per group of " + std::to_string(group_commit)
                        : std::string(", fsync per record"));
    }
    std::cout << "\n";
  }
  if (!persist_error.empty()) {
    std::cerr << "FAILED: persistence: " << persist_error << "\n";
    return 1;
  }
  if (!all_valid || !all_monotone) {
    std::cerr << "FAILED: "
              << (!all_valid ? "view validation " : "")
              << (!all_monotone ? "epoch monotonicity" : "") << "\n";
    return 1;
  }
  return 0;
}
