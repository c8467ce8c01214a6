// UpdateEngine: the staged update path — bounded ingest queue feeding
// journal append with group-commit fsync batching, the settle pipeline,
// and view publication / checkpoint I/O.
//
//   submit(batch)
//     │  bounded ingest queue (backpressure when the updater falls behind)
//     ▼
//   [J] journal stage   append_buffered() each batch; commit() — ONE
//       (appender role) fflush+fsync — per group of up to `group_commit`
//                       batches (or when the queue idles / the timer
//                       expires), advancing the durable-epoch watermark
//     ▼
//   [S] settle stage    m.update_by_endpoints() — the full parallel
//       (updater role)  settle pipeline — then, at the epoch barrier,
//                       capture: make_view_into() + encode_checkpoint()
//     ▼
//   [P] publish stage   ViewChannel::publish() (+ epoch reclamation of
//       (writer role)   retired views into spares), checkpoint file
//                       write/fsync/rename/prune, buffer recycling,
//                       latency stamps
//
// What genuinely overlaps: while S settles batch i+1, J is fsyncing batch
// i's group and P is publishing batch i's view, reclaiming the views
// batch i's publication retired, and writing batch i's checkpoint file.
// What deliberately does NOT overlap: make_view_into() and
// encode_checkpoint() read live matcher state, so they run AT the epoch
// barrier on the settle stage — which is exactly why determinism survives
// the pipelining: every view and checkpoint is captured at the same epoch
// boundary the synchronous path uses, so for every epoch the matcher
// state, the journal bytes, and the published view are byte-identical to
// the synchronous engine's.
//
// The view capture is a delta (DynamicMatcher::make_view_into): S builds
// epoch e's view from the view it built for e-1 plus what changed in
// between, so it costs a lane copy plus the change set, not a scan of
// every edge. Reading the e-1 view on S while P owns it is safe because
// the channel retires a view only when a newer one is published, and e's
// view is published only after S has built it; a failed publish hands
// its unpublished item back to the queue instead of freeing it, for the
// same reason. The buffers flow the other way through the Scratch
// handoff, the PublishWork pool: shells recycle S→P→S carrying the
// checkpoint byte buffer and, once P has published, a spare view the
// channel reclaimed, which S builds a later epoch's view into. All
// freeing of checkpoint buffers happens on P, off the settle barrier path.
//
// Two modes, one stage code path:
//   pipelined=false  every stage runs inline on the calling thread, in
//                    the fixed order above — the synchronous reference
//                    engine. Its sync points fire in one deterministic
//                    total order, so crash-at-every-point tests enumerate
//                    every reachable on-disk state.
//   pipelined=true   stages J/S/P run on their own threads with bounded
//                    queues between them (a linear chain: backpressure
//                    cannot deadlock).
//
// Durability watermark: durable_epoch() is the last epoch whose journal
// record a successful commit() made durable. A failed or injected-failed
// fsync NEVER advances it — the engine halts with error() set, submit()
// starts returning false, and the watermark tells the caller exactly
// which epochs survive. Group commit trades the freshness of this
// watermark (it lags by up to group_commit-1 batches) for one fsync per
// group instead of one per batch; recovery replays the
// journal deterministically, so epochs that were applied in memory but
// lost with the tail are simply re-settled to identical bytes. Checkpoint
// placement obeys the write-ahead rule: a checkpoint for epoch e is only
// renamed into place after e's journal group has committed (the publish
// stage forces/awaits the commit), so on-disk state never runs ahead of
// the log and every crash image has a single consistent lineage.
//
// Thread contract: the constructing thread owns the matcher (updater
// role) and, via MatchViewService{install_hook=false}, the channel. In
// pipelined mode those roles hand off to the stage threads for the
// engine's lifetime — the caller must not call update()/publish between
// start and stop. stop() (or destruction) joins the stages and hands the
// roles back. All public members are safe from any thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/matcher.h"
#include "persist/journal.h"
#include "serve/view_service.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "workload/generators.h"

namespace pdmm::engine {

// Per-epoch updater latency, measured from submit(). Microseconds; a
// field is 0 when its stage is not configured (no journal / no service).
struct LatencySample {
  uint64_t epoch = 0;
  double durable_us = 0;    // submit → journal group commit returned
  double published_us = 0;  // submit → view published to the channel
  double retired_us = 0;    // submit → batch fully retired (all I/O done)
};

class UpdateEngine {
 public:
  struct Options {
    // false: synchronous reference engine (stages inline on the caller).
    bool pipelined = false;
    // Bound on each inter-stage queue (ingest, settle, publish).
    size_t queue_capacity = 8;
    // Journal group commit: batches per commit() group. 1 = the
    // synchronous per-batch fsync cost. In pipelined mode a group also
    // commits early when the ingest queue idles (no batch waits on a
    // group that may never fill).
    size_t group_commit = 1;
    // Checkpoint every N epochs into "<checkpoint_prefix>.<epoch>"
    // (0: never). Encoded at the barrier on S; written/pruned on P.
    uint64_t checkpoint_every = 0;
    size_t checkpoint_keep = 3;
    bool checkpoint_durable = false;
    std::string checkpoint_prefix;
    // Stream fingerprint recorded into checkpoints (journal fingerprints
    // are the Journal's own option).
    std::string stream_fp;
    // Record per-epoch LatencySamples (latency_samples() after drain).
    bool record_latency = false;
    // Fired after each successful journal commit with the new durable
    // epoch, from the committing thread (J stage when pipelined, the
    // caller otherwise), outside the engine's lock. Monotone and
    // group-grained — this is the watermark a replication monitor or
    // lag probe samples without polling durable_epoch(). Must not call
    // back into the engine.
    std::function<void(uint64_t durable_epoch)> on_durable;
  };

  // `service` (nullable) must have been constructed with
  // Options::install_hook=false — the engine publishes from its own
  // stage; the matcher's post-batch hook stays free for the caller
  // (the equivalence oracle captures BatchResults through it).
  // `journal` (nullable) must be positioned at the matcher's epoch.
  UpdateEngine(DynamicMatcher& m, MatchViewService* service,
               persist::Journal* journal, Options opt);
  ~UpdateEngine();  // stop(), discarding any error

  UpdateEngine(const UpdateEngine&) = delete;
  UpdateEngine& operator=(const UpdateEngine&) = delete;

  // Enqueues (pipelined) or fully processes (inline) one batch. Blocks on
  // a full ingest queue. False once the engine has failed or stopped —
  // the batch was NOT accepted; see error().
  bool submit(Batch batch);

  // Blocks until every submitted batch is applied, published, durable
  // (forcing a commit of any open group), and retired. False if the
  // engine failed first. The engine keeps accepting submits after.
  bool drain();

  // drain() + join the stage threads. Idempotent; false on failure.
  bool stop();

  bool failed() const;
  std::string error() const;  // empty when healthy

  // Watermarks. submitted <= applied/durable <= retired order is NOT
  // guaranteed between J and S (they advance concurrently); each is
  // individually monotone.
  uint64_t submitted_epoch() const;  // last epoch accepted by submit()
  uint64_t durable_epoch() const;    // last epoch past a successful commit
  uint64_t applied_epoch() const;    // last epoch settled into the matcher
  uint64_t retired_epoch() const;    // last epoch fully done (incl. I/O)

  // One sample per retired epoch, in epoch order. Call after drain()/
  // stop(); empty unless Options::record_latency.
  std::vector<LatencySample> latency_samples() const;

 private:
  struct Item {
    uint64_t epoch = 0;
    Batch batch;
  };
  // The Scratch handoff unit: everything S captures at the epoch barrier
  // for P to push to disk/readers. Retired shells recycle back to S.
  struct PublishWork {
    uint64_t epoch = 0;
    // S → P: the epoch's view (null: no service configured). P → S, once
    // published: a spare the channel reclaimed (or null), which S builds
    // a later epoch's view into.
    std::unique_ptr<MatchView> view;
    std::string ck_bytes;                   // encoded checkpoint container
    bool do_checkpoint = false;
    std::chrono::steady_clock::time_point t_published;
  };

  // Fires an engine-stage sync point; on an injected kFail/kCrash halts
  // the engine (fail()) and returns false.
  bool fire_point(const char* point, uint64_t epoch);

  // Stage bodies (run outside mu_; they fire sync points and do I/O).
  bool do_append(const Item& it);
  bool do_commit();
  bool do_settle(const Item& it, PublishWork& w);
  bool do_publish(PublishWork& w);

  bool submit_inline(Item it);
  void journal_loop();
  void settle_loop();
  void publish_loop();

  void fail(const char* where, std::string msg);
  bool commit_due_locked(bool idle) const PDMM_REQUIRES(mu_);
  PublishWork take_shell_locked() PDMM_REQUIRES(mu_);
  void retire_locked(PublishWork&& w) PDMM_REQUIRES(mu_);
  void record_durable_locked(uint64_t up_to) PDMM_REQUIRES(mu_);
  void record_submit_locked(uint64_t epoch,
                            std::chrono::steady_clock::time_point t)
      PDMM_REQUIRES(mu_);

  DynamicMatcher& m_;
  MatchViewService* service_;
  persist::Journal* journal_;
  const Options opt_;
  const uint64_t base_epoch_;

  // mutable: the const watermark accessors lock it.
  mutable Mutex mu_;
  // Queues and watermarks. The linear stage chain waits as:
  //   submit() on cv_producer_ (ingest space), J on cv_journal_ (ingest
  //   items / settle space), S on cv_settle_ (settle
  //   items / publish space), P on cv_publish_ (publish items), drain()
  //   on cv_drain_. A downstream pop notifies its upstream stage only
  //   when that stage waits for space (the *_wants_space_ flags) — J and
  //   S mostly wait for items, and a wake-up per pop would be spurious.
  //   fail() notifies all.
  CondVar cv_producer_, cv_journal_, cv_settle_, cv_publish_, cv_drain_;
  std::deque<Item> ingest_q_ PDMM_GUARDED_BY(mu_);
  std::deque<Item> settle_q_ PDMM_GUARDED_BY(mu_);
  std::deque<PublishWork> publish_q_ PDMM_GUARDED_BY(mu_);
  std::vector<PublishWork> recycle_ PDMM_GUARDED_BY(mu_);
  bool closed_ PDMM_GUARDED_BY(mu_) = false;
  bool halted_ PDMM_GUARDED_BY(mu_) = false;
  bool journal_done_ PDMM_GUARDED_BY(mu_) = false;
  bool settle_done_ PDMM_GUARDED_BY(mu_) = false;
  bool publish_done_ PDMM_GUARDED_BY(mu_) = false;
  bool journal_wants_space_ PDMM_GUARDED_BY(mu_) = false;  // settle_q_ full
  bool settle_wants_space_ PDMM_GUARDED_BY(mu_) = false;   // publish_q_ full
  std::string error_ PDMM_GUARDED_BY(mu_);
  uint64_t next_epoch_ PDMM_GUARDED_BY(mu_);
  uint64_t durable_epoch_ PDMM_GUARDED_BY(mu_);
  uint64_t applied_epoch_ PDMM_GUARDED_BY(mu_);
  uint64_t retired_epoch_ PDMM_GUARDED_BY(mu_);
  uint64_t flush_target_ PDMM_GUARDED_BY(mu_) = 0;
  // Open commit group: batches appended (buffered) but not committed.
  size_t pending_commit_ PDMM_GUARDED_BY(mu_) = 0;
  // Parallel arrays indexed epoch - base_epoch_ - 1 (epochs are assigned
  // contiguously by submit()).
  std::vector<LatencySample> samples_ PDMM_GUARDED_BY(mu_);
  std::vector<std::chrono::steady_clock::time_point> t_submit_
      PDMM_GUARDED_BY(mu_);

  // Settle stage only (the caller's thread in inline mode): the view S
  // captured last, the delta base of its next capture. Null until the
  // first capture. No capture starts once the engine has halted; one
  // already running when P fails is why a failed publish keeps its view
  // alive (publish_loop).
  const MatchView* last_view_ = nullptr;

  std::thread tj_, ts_, tp_;
  bool threads_joined_ = false;  // stop()/dtor only (caller thread)
};

}  // namespace pdmm::engine
