// ViewChannel: single-writer publication of immutable MatchViews to any
// number of concurrent reader threads, with epoch-based reclamation.
//
// Protocol (see docs/ARCHITECTURE.md "The concurrent read path"):
//
//   publish   the updater hands over a freshly built view; the channel
//             swaps it into the `current` pointer, advances the publish
//             epoch, and retires the previous view.
//   acquire   a reader pins the current publish epoch into a free
//             EpochSlots slot, then loads `current`. The returned
//             ViewHandle keeps the slot pinned, so every view the reader
//             can possibly hold is protected for the handle's lifetime.
//   retire    a superseded view goes onto the writer-private retired list,
//             stamped with the epoch that superseded it.
//   reclaim   on each publish the writer scans the slots; retired views
//             whose retire epoch is <= the minimum pinned epoch are
//             reclaimed — no reader can reach them any more (argument in
//             parallel/epoch_reclaim.h). Up to kMaxSpares of them go onto
//             the writer-private spare list, the rest are freed.
//   recycle   the writer takes a spare (take_spare) and builds its next
//             view into it, reusing the vectors' capacity. The argument
//             that makes freeing a reclaimed view safe makes overwriting
//             it safe: a reader holding a handle pins its view's epoch,
//             so that view never becomes a spare while the handle lives.
//
// Readers are wait-free per query (the view is immutable) and acquire in a
// bounded number of steps (one scan of the fixed slot array); they never
// take a lock and never block the writer. The writer never blocks on
// readers either: a slow reader only delays the *reclaiming* of old views,
// never publication. Reclamation is epoch-based, so an outstanding handle
// holds back every view retired since it was acquired: memory is the
// current view, the views published during the oldest outstanding lease,
// and at most kMaxSpares spares.
//
// Thread contract: publish(), current(), take_spare() and the stats that
// read the retired or spare list are writer-thread-only. acquire() and the
// ViewHandle are safe from any thread; a handle must be released
// (destroyed) by the thread holding it before the channel is destroyed.
//
// The writer-thread-only surface is machine-checked: writer_role() is a
// ThreadRole capability (util/mutex.h), the retired and spare lists are
// guarded by it, and every writer-side member requires it. The single
// writer thread asserts the role once at its entry point
// (`ch.writer_role().assert_held()`) with a comment stating why the
// single-writer contract holds there; under the `tidy` preset every other
// access path is a compile error.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "parallel/epoch_reclaim.h"
#include "serve/match_view.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pdmm {

class ViewChannel;

// RAII read lease on one published view. Move-only; the destructor unpins
// the reclamation slot. Holding several handles (even on one thread) is
// fine — each owns its own slot — so the natural refresh pattern
// `h = channel.acquire()` is safe: the new handle pins before the old one
// releases.
class ViewHandle {
 public:
  ViewHandle() = default;
  ViewHandle(ViewHandle&& o) noexcept
      : channel_(std::exchange(o.channel_, nullptr)),
        view_(std::exchange(o.view_, nullptr)),
        slot_(o.slot_) {}
  ViewHandle& operator=(ViewHandle&& o) noexcept {
    if (this != &o) {
      release();
      channel_ = std::exchange(o.channel_, nullptr);
      view_ = std::exchange(o.view_, nullptr);
      slot_ = o.slot_;
    }
    return *this;
  }
  ViewHandle(const ViewHandle&) = delete;
  ViewHandle& operator=(const ViewHandle&) = delete;
  ~ViewHandle() { release(); }

  explicit operator bool() const { return view_ != nullptr; }
  const MatchView& operator*() const { return *view_; }
  const MatchView* operator->() const { return view_; }
  const MatchView* get() const { return view_; }

  void release();

 private:
  friend class ViewChannel;
  ViewHandle(ViewChannel* channel, const MatchView* view, size_t slot)
      : channel_(channel), view_(view), slot_(slot) {}

  ViewChannel* channel_ = nullptr;
  const MatchView* view_ = nullptr;
  size_t slot_ = 0;
};

class ViewChannel {
 public:
  // max_readers bounds the number of concurrently *outstanding*
  // ViewHandles (not reader threads: a thread holding no handle occupies
  // no slot).
  explicit ViewChannel(size_t max_readers = 64);
  ~ViewChannel();

  ViewChannel(const ViewChannel&) = delete;
  ViewChannel& operator=(const ViewChannel&) = delete;

  // Most spares kept; further reclaimed views are freed.
  static constexpr size_t kMaxSpares = 4;

  // Writer side. Publishes `view` as the new current view; epochs of
  // successive publishes must be monotone non-decreasing (the matcher's
  // batch counter is). Retires the previous view and reclaims whatever
  // became unreachable. The channel hands the view to readers as const
  // and, once it is reclaimed, back to the writer as a spare.
  void publish(std::unique_ptr<MatchView> view) PDMM_REQUIRES(writer_role_);

  // Writer-thread-only: the latest published view (null before the first
  // publish). Only the writer retires views and the current one is never
  // retired, so the writer may read it without a handle — the next
  // capture uses it as its delta base.
  const MatchView* current() const PDMM_REQUIRES(writer_role_) {
    // mo: relaxed — current_ is only stored by this (the writer) thread.
    return current_.load(std::memory_order_relaxed);
  }

  // Writer-thread-only: a reclaimed view to build the next view into (its
  // contents are stale, its vectors keep their capacity), or null when no
  // spare is left.
  std::unique_ptr<MatchView> take_spare() PDMM_REQUIRES(writer_role_);

  // Reader side: lease the latest published view (null handle before the
  // first publish). Aborts when more than max_readers handles are
  // outstanding — a capacity misconfiguration, not a runtime condition.
  ViewHandle acquire();

  // Epoch of the latest published view (0 before the first publish).
  // Readers use it to gauge the staleness of a held handle. Safe from any
  // thread with no handle held: the epoch lives in its own atomic, never
  // behind the (reclaimable) view pointer. The epoch store precedes the
  // pointer swap, so for a handle h acquired before the call,
  // published_epoch() >= h->epoch always holds (staleness never
  // underflows).
  uint64_t published_epoch() const {
    // mo: acquire — pairs with the writer's seq_cst store so a reader that
    // sees epoch E also sees everything published before E was stamped.
    return payload_epoch_.load(std::memory_order_acquire);
  }

  // ---- introspection (tests, drivers) ----
  uint64_t published_count() const {
    // mo: relaxed — diagnostic counter; no ordering consumers.
    return published_.load(std::memory_order_relaxed);
  }
  // Views reclaimed so far, whether freed or kept as spares: either way no
  // reader can reach them, so published_count() - freed_count() is the
  // number of views readers may still hold.
  uint64_t freed_count() const {
    // mo: relaxed — diagnostic counter; no ordering consumers.
    return freed_.load(std::memory_order_relaxed);
  }
  // Writer-thread-only: retired views not yet reclaimable.
  size_t retired_pending() const PDMM_REQUIRES(writer_role_) {
    return retired_.size();
  }
  // Writer-thread-only: reclaimed views waiting to be reused.
  size_t spare_count() const PDMM_REQUIRES(writer_role_) {
    return spares_.size();
  }
  // Writer-thread-only: run a reclamation scan outside publish (e.g. after
  // the update stream ends, once readers wind down).
  void reclaim() PDMM_REQUIRES(writer_role_);

  // The single-writer capability guarding the writer-side members and the
  // retired and spare lists. The writer thread asserts it where the
  // contract is established (one updater per channel, by construction of
  // the caller).
  const ThreadRole& writer_role() const PDMM_RETURN_CAPABILITY(writer_role_) {
    return writer_role_;
  }

 private:
  friend class ViewHandle;

  // Publish sequence number: 1 + number of publishes so far. Reclamation
  // pins this, not the view's batch epoch, so the protocol is independent
  // of how the payload numbers its generations.
  std::atomic<uint64_t> seq_{0};
  std::atomic<MatchView*> current_{nullptr};
  // Payload (batch) epoch of the current view, readable without a handle.
  std::atomic<uint64_t> payload_epoch_{0};
  EpochSlots slots_;

  ThreadRole writer_role_;
  // Writer-private: views superseded at sequence number `second`, in
  // publish order (so the reclaimable ones are always a prefix).
  std::vector<std::pair<std::unique_ptr<MatchView>, uint64_t>> retired_
      PDMM_GUARDED_BY(writer_role_);
  // Writer-private: reclaimed views for take_spare(), at most kMaxSpares.
  std::vector<std::unique_ptr<MatchView>> spares_
      PDMM_GUARDED_BY(writer_role_);
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> freed_{0};
};

}  // namespace pdmm
