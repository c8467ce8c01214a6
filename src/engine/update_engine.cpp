#include "engine/update_engine.h"

#include <utility>

#include "persist/checkpoint.h"
#include "util/sync_point.h"

namespace pdmm::engine {

namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

UpdateEngine::Options normalized(UpdateEngine::Options opt) {
  if (opt.queue_capacity == 0) opt.queue_capacity = 1;
  if (opt.group_commit == 0) opt.group_commit = 1;
  if (opt.checkpoint_keep == 0) opt.checkpoint_keep = 1;
  return opt;
}

}  // namespace

UpdateEngine::UpdateEngine(DynamicMatcher& m, MatchViewService* service,
                           persist::Journal* journal, Options opt)
    : m_(m),
      service_(service),
      journal_(journal),
      opt_(normalized(std::move(opt))),
      base_epoch_(m.batch_epoch()),
      next_epoch_(base_epoch_),
      durable_epoch_(base_epoch_),
      applied_epoch_(base_epoch_),
      retired_epoch_(base_epoch_) {
  if (opt_.pipelined) {
    tj_ = std::thread([this] { journal_loop(); });
    ts_ = std::thread([this] { settle_loop(); });
    tp_ = std::thread([this] { publish_loop(); });
  }
}

UpdateEngine::~UpdateEngine() { stop(); }

// ---------------------------------------------------------------------------
// Shared stage bodies (inline engine and stage threads run the same code)
// ---------------------------------------------------------------------------

bool UpdateEngine::fire_point(const char* point, uint64_t epoch) {
  switch (SyncPoints::fire(point, epoch)) {
    case SyncPoints::kProceed:
      return true;
    case SyncPoints::kFail:
      fail(point, "injected failure");
      return false;
    case SyncPoints::kCrash:
      fail(point, "injected crash");
      return false;
  }
  return true;  // unreachable; the switch is exhaustive
}

bool UpdateEngine::do_append(const Item& it) {
  // The journal stage (inline mode: the engine's owner thread) is the
  // journal's only appender while the engine runs: no other engine stage
  // touches the journal, and the caller handed it over for the engine's
  // lifetime (constructor contract).
  journal_->appender_role().assert_held();
  if (!fire_point(kEnginePreAppend, it.epoch)) return false;
  std::string err;
  if (!journal_->append_buffered(it.epoch, it.batch, &err)) {
    fail("journal append", std::move(err));
    return false;
  }
  return fire_point(kEnginePostAppend, it.epoch);
}

bool UpdateEngine::do_commit() {
  // Same single-appender handoff as do_append (J stage / owner thread).
  journal_->appender_role().assert_held();
  std::string err;
  if (!journal_->commit(&err)) {
    // The group stays non-durable: durable_epoch_ is NOT advanced, which
    // is the watermark contract — a failed fsync is an engine error the
    // caller sees, never a silently-dropped durability level.
    fail("journal commit", std::move(err));
    return false;
  }
  const uint64_t committed = journal_->committed_epoch();
  {
    MutexLock lk(mu_);
    pending_commit_ = 0;
    record_durable_locked(committed);
    cv_drain_.notify_all();
  }
  if (opt_.on_durable) opt_.on_durable(committed);
  return fire_point(kEnginePostCommit, committed);
}

bool UpdateEngine::do_settle(const Item& it, PublishWork& w) {
  if (!fire_point(kEnginePreSettle, it.epoch)) return false;
  // update() asserts the matcher's updater role internally; the settle
  // stage is the single updater by the constructor's handoff contract.
  m_.update_by_endpoints(it.batch.deletions, it.batch.insertions);
  if (m_.batch_epoch() != it.epoch) {
    fail("settle", "matcher epoch " + std::to_string(m_.batch_epoch()) +
                       " disagrees with pipeline epoch " +
                       std::to_string(it.epoch));
    return false;
  }
  if (!fire_point(kEnginePostSettle, it.epoch)) return false;
  // Epoch-barrier capture: everything below reads live matcher state and
  // therefore must finish before the next batch settles. The file/channel
  // I/O over the captured bytes is what ships downstream.
  w.epoch = it.epoch;
  w.do_checkpoint = opt_.checkpoint_every > 0 &&
                    it.epoch % opt_.checkpoint_every == 0 &&
                    !opt_.checkpoint_prefix.empty();
  if (service_ != nullptr) {
    // Built into the spare the recycled shell carried back from P, as a
    // delta against the previous epoch's view. That view is alive: the
    // channel retires it only once a newer view — this one at the
    // earliest — is published.
    if (!w.view) w.view = std::make_unique<MatchView>();
    m_.make_view_into(*w.view, last_view_);
    last_view_ = w.view.get();
  }
  if (w.do_checkpoint) {
    if (!fire_point(kEnginePreCheckpoint, it.epoch)) return false;
    std::string err;
    if (!persist::encode_checkpoint(m_, w.ck_bytes, &err, opt_.stream_fp)) {
      fail("checkpoint encode", std::move(err));
      return false;
    }
  }
  return true;
}

bool UpdateEngine::do_publish(PublishWork& w) {
  if (!fire_point(kEnginePrePublish, w.epoch)) return false;
  if (w.view) {
    // Single-writer: the publish stage (inline mode: the owner thread) is
    // the channel's only writer while the engine runs — the service was
    // constructed with install_hook=false, so no post-batch hook competes,
    // and publish_now() is unused by contract.
    ViewChannel& ch = service_->channel();
    ch.writer_role().assert_held();
    ch.publish(std::move(w.view));
    // The shell carries a reclaimed view back to S for a later epoch.
    w.view = ch.take_spare();
  }
  w.t_published = Clock::now();
  if (!fire_point(kEnginePostPublish, w.epoch)) return false;
  if (w.do_checkpoint && journal_ != nullptr) {
    // Write-ahead rule: never place a checkpoint for an epoch the journal
    // has not committed — recovery treats a checkpoint ahead of the
    // journal as corruption (no process kill can produce it), so the
    // epoch's group must reach disk before its checkpoint does.
    if (!opt_.pipelined) {
      bool commit_now = false;
      {
        MutexLock lk(mu_);
        commit_now = durable_epoch_ < w.epoch;
      }
      // Inline mode runs on the owner thread, which is the appender.
      if (commit_now && !do_commit()) return false;
    } else {
      MutexLock lk(mu_);
      if (flush_target_ < w.epoch) flush_target_ = w.epoch;
      cv_journal_.notify_all();
      // J commits on its next pass once flush_target_ passes the
      // watermark (commit_due_locked); do_commit notifies cv_drain_.
      while (!halted_ && durable_epoch_ < w.epoch) cv_drain_.wait(mu_);
      if (halted_) return false;
    }
  }
  if (w.do_checkpoint) {
    std::string err;
    if (!persist::write_checkpoint_series_bytes(
            opt_.checkpoint_prefix, w.epoch, w.ck_bytes, opt_.checkpoint_keep,
            &err, opt_.checkpoint_durable)) {
      fail("checkpoint write", std::move(err));
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Bookkeeping (all under mu_)
// ---------------------------------------------------------------------------

void UpdateEngine::fail(const char* where, std::string msg) {
  MutexLock lk(mu_);
  if (error_.empty()) error_ = std::string(where) + ": " + std::move(msg);
  halted_ = true;
  cv_producer_.notify_all();
  cv_journal_.notify_all();
  cv_settle_.notify_all();
  cv_publish_.notify_all();
  cv_drain_.notify_all();
}

bool UpdateEngine::commit_due_locked(bool idle) const {
  if (pending_commit_ == 0) return false;
  if (pending_commit_ >= opt_.group_commit) return true;
  if (closed_ || flush_target_ > durable_epoch_) return true;
  // The queue idled with a partial group: commit it now.
  return idle;
}

UpdateEngine::PublishWork UpdateEngine::take_shell_locked() {
  if (recycle_.empty()) return PublishWork{};
  PublishWork w = std::move(recycle_.back());
  recycle_.pop_back();
  return w;
}

void UpdateEngine::retire_locked(PublishWork&& w) {
  retired_epoch_ = w.epoch;
  if (opt_.record_latency && w.epoch > base_epoch_) {
    const size_t i = static_cast<size_t>(w.epoch - base_epoch_ - 1);
    if (i < samples_.size()) {
      if (service_ != nullptr) {
        samples_[i].published_us = us_between(t_submit_[i], w.t_published);
      }
      samples_[i].retired_us = us_between(t_submit_[i], Clock::now());
    }
  }
  // Free the checkpoint buffer HERE, on the publish stage, so the settle
  // barrier never pays deallocation; keep a few shells — each with the
  // spare view do_publish put in it — to bound per-epoch container churn.
  w.ck_bytes = std::string();
  w.do_checkpoint = false;
  if (recycle_.size() < 4) recycle_.push_back(std::move(w));
}

void UpdateEngine::record_durable_locked(uint64_t up_to) {
  if (opt_.record_latency) {
    const auto now = Clock::now();
    for (uint64_t e = durable_epoch_ + 1; e <= up_to; ++e) {
      if (e <= base_epoch_) continue;
      const size_t i = static_cast<size_t>(e - base_epoch_ - 1);
      if (i < samples_.size()) {
        samples_[i].durable_us = us_between(t_submit_[i], now);
      }
    }
  }
  durable_epoch_ = up_to;
}

void UpdateEngine::record_submit_locked(uint64_t epoch,
                                        Clock::time_point t) {
  if (!opt_.record_latency) return;
  LatencySample s;
  s.epoch = epoch;
  samples_.push_back(s);
  t_submit_.push_back(t);
}

// ---------------------------------------------------------------------------
// Driver surface
// ---------------------------------------------------------------------------

bool UpdateEngine::submit(Batch batch) {
  const Clock::time_point t_submit = Clock::now();
  Item it;
  it.batch = std::move(batch);
  if (!opt_.pipelined) {
    {
      MutexLock lk(mu_);
      if (halted_ || closed_) return false;
      it.epoch = ++next_epoch_;
      record_submit_locked(it.epoch, t_submit);
    }
    return submit_inline(std::move(it));
  }
  MutexLock lk(mu_);
  while (!halted_ && !closed_ && ingest_q_.size() >= opt_.queue_capacity) {
    cv_producer_.wait(mu_);
  }
  if (halted_ || closed_) return false;
  it.epoch = ++next_epoch_;
  record_submit_locked(it.epoch, t_submit);
  ingest_q_.push_back(std::move(it));
  cv_journal_.notify_one();
  return true;
}

bool UpdateEngine::submit_inline(Item it) {
  // Fixed canonical stage order — the deterministic schedule the
  // crash-at-every-point tests enumerate: append, (group) commit,
  // settle, capture, publish, checkpoint I/O, retire.
  if (journal_ != nullptr) {
    if (!do_append(it)) return false;
    bool commit_now = false;
    {
      MutexLock lk(mu_);
      ++pending_commit_;
      commit_now = commit_due_locked(/*idle=*/false);
    }
    if (commit_now && !do_commit()) return false;
  }
  PublishWork w;
  {
    MutexLock lk(mu_);
    w = take_shell_locked();
  }
  if (!do_settle(it, w)) return false;
  {
    MutexLock lk(mu_);
    applied_epoch_ = it.epoch;
  }
  if (!do_publish(w)) return false;
  MutexLock lk(mu_);
  retire_locked(std::move(w));
  return true;
}

bool UpdateEngine::drain() {
  if (!opt_.pipelined) {
    bool commit_now = false;
    {
      MutexLock lk(mu_);
      if (halted_) return false;
      flush_target_ = next_epoch_;
      commit_now = journal_ != nullptr && commit_due_locked(/*idle=*/false);
    }
    return !commit_now || do_commit();
  }
  MutexLock lk(mu_);
  if (halted_) return false;
  flush_target_ = next_epoch_;
  const uint64_t target = next_epoch_;
  cv_journal_.notify_all();
  while (!halted_ &&
         !(retired_epoch_ >= target &&
           (journal_ == nullptr || durable_epoch_ >= target))) {
    cv_drain_.wait(mu_);
  }
  return !halted_;
}

bool UpdateEngine::stop() {
  if (!opt_.pipelined) {
    const bool ok = drain();
    MutexLock lk(mu_);
    closed_ = true;
    return ok && !halted_;
  }
  {
    MutexLock lk(mu_);
    if (!closed_) {
      closed_ = true;
      flush_target_ = next_epoch_;
    }
    cv_producer_.notify_all();
    cv_journal_.notify_all();
    cv_settle_.notify_all();
    cv_publish_.notify_all();
  }
  // stop()/destruction run on the owner thread only (class contract), so
  // the join flag needs no lock.
  if (!threads_joined_) {
    if (tj_.joinable()) tj_.join();
    if (ts_.joinable()) ts_.join();
    if (tp_.joinable()) tp_.join();
    threads_joined_ = true;
  }
  MutexLock lk(mu_);
  return !halted_;
}

bool UpdateEngine::failed() const {
  MutexLock lk(mu_);
  return halted_;
}

std::string UpdateEngine::error() const {
  MutexLock lk(mu_);
  return error_;
}

uint64_t UpdateEngine::submitted_epoch() const {
  MutexLock lk(mu_);
  return next_epoch_;
}

uint64_t UpdateEngine::durable_epoch() const {
  MutexLock lk(mu_);
  return durable_epoch_;
}

uint64_t UpdateEngine::applied_epoch() const {
  MutexLock lk(mu_);
  return applied_epoch_;
}

uint64_t UpdateEngine::retired_epoch() const {
  MutexLock lk(mu_);
  return retired_epoch_;
}

std::vector<LatencySample> UpdateEngine::latency_samples() const {
  MutexLock lk(mu_);
  return samples_;
}

// ---------------------------------------------------------------------------
// Pipelined stage loops
// ---------------------------------------------------------------------------

void UpdateEngine::journal_loop() {
  for (;;) {
    Item it;
    bool have_item = false;
    bool commit_now = false;
    {
      MutexLock lk(mu_);
      for (;;) {
        if (halted_) {
          journal_done_ = true;
          cv_settle_.notify_all();
          return;
        }
        if (!ingest_q_.empty()) {
          if (settle_q_.size() >= opt_.queue_capacity) {
            // Backpressure from the settle stage; S's next pop sees the
            // flag and notifies cv_journal_. Only J pushes to settle_q_,
            // so the space we see after waking cannot be stolen.
            journal_wants_space_ = true;
            cv_journal_.wait(mu_);
            journal_wants_space_ = false;
            continue;
          }
          it = std::move(ingest_q_.front());
          ingest_q_.pop_front();
          cv_producer_.notify_one();
          have_item = true;
          break;
        }
        if (commit_due_locked(/*idle=*/true)) {
          commit_now = true;
          break;
        }
        if (closed_ && pending_commit_ == 0) {
          journal_done_ = true;
          cv_settle_.notify_all();
          return;
        }
        cv_journal_.wait(mu_);
      }
    }
    if (have_item) {
      if (journal_ != nullptr && !do_append(it)) return;
      MutexLock lk(mu_);
      if (halted_) {
        journal_done_ = true;
        cv_settle_.notify_all();
        return;
      }
      if (journal_ != nullptr) {
        ++pending_commit_;
        commit_now = commit_due_locked(/*idle=*/ingest_q_.empty());
      }
      settle_q_.push_back(std::move(it));
      cv_settle_.notify_one();
    }
    if (commit_now && journal_ != nullptr && !do_commit()) return;
  }
}

void UpdateEngine::settle_loop() {
  for (;;) {
    Item it;
    PublishWork w;
    {
      MutexLock lk(mu_);
      for (;;) {
        if (halted_) {
          settle_done_ = true;
          cv_publish_.notify_all();
          return;
        }
        if (!settle_q_.empty()) {
          if (publish_q_.size() >= opt_.queue_capacity) {
            // Backpressure from the publish stage; P's next pop sees the
            // flag and notifies cv_settle_. Only S pushes to publish_q_,
            // so the reserved space holds across the unlock below.
            settle_wants_space_ = true;
            cv_settle_.wait(mu_);
            settle_wants_space_ = false;
            continue;
          }
          break;
        }
        if (journal_done_) {
          settle_done_ = true;
          cv_publish_.notify_all();
          return;
        }
        cv_settle_.wait(mu_);
      }
      it = std::move(settle_q_.front());
      settle_q_.pop_front();
      if (journal_wants_space_) cv_journal_.notify_one();
      w = take_shell_locked();
    }
    if (!do_settle(it, w)) return;
    MutexLock lk(mu_);
    applied_epoch_ = it.epoch;
    publish_q_.push_back(std::move(w));
    cv_publish_.notify_one();
    cv_drain_.notify_all();
  }
}

void UpdateEngine::publish_loop() {
  for (;;) {
    PublishWork w;
    {
      MutexLock lk(mu_);
      while (!halted_ && publish_q_.empty() && !settle_done_) {
        cv_publish_.wait(mu_);
      }
      // On halt, stop without touching queued work: an injected crash
      // means no further I/O, and a real failure already poisoned the run.
      if (halted_ || publish_q_.empty()) {
        publish_done_ = true;
        cv_drain_.notify_all();
        return;
      }
      w = std::move(publish_q_.front());
      publish_q_.pop_front();
      if (settle_wants_space_) cv_settle_.notify_one();
    }
    if (!do_publish(w)) {
      // Unpublished, w's view may be the base S is capturing the next
      // epoch against right now: hand it back to the queue, which the
      // engine frees only after the stage threads have joined.
      MutexLock lk(mu_);
      publish_q_.push_front(std::move(w));
      return;
    }
    MutexLock lk(mu_);
    retire_locked(std::move(w));
    cv_drain_.notify_all();
  }
}

}  // namespace pdmm::engine
