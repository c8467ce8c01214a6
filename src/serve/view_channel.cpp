#include "serve/view_channel.h"

#include <cstddef>

namespace pdmm {

void ViewHandle::release() {
  if (!channel_) return;
  channel_->slots_.unpin(slot_);
  channel_ = nullptr;
  view_ = nullptr;
}

ViewChannel::ViewChannel(size_t max_readers) : slots_(max_readers) {}

ViewChannel::~ViewChannel() {
  // Destruction requires external quiescence (no concurrent publisher or
  // readers — the assert below checks the reader half), so the destroying
  // thread holds the writer role by construction.
  writer_role_.assert_held();
  PDMM_ASSERT_MSG(slots_.active() == 0,
                  "ViewChannel destroyed with outstanding ViewHandles");
  // mo: relaxed — quiescent by contract here; nothing concurrent to order
  // against. (Retired views and spares free with their lists.)
  delete current_.load(std::memory_order_relaxed);
}

void ViewChannel::publish(std::unique_ptr<MatchView> view) {
  PDMM_ASSERT(view != nullptr);
  // mo: relaxed — current_ is only stored by this (the single writer)
  // thread, so its own last store is visible without ordering.
  MatchView* old = current_.load(std::memory_order_relaxed);
  // Equal epochs are allowed (publish_now after rebuild()/load()
  // re-publishes the same batch epoch); a decrease is a protocol bug.
  PDMM_ASSERT_MSG(!old || view->epoch >= old->epoch,
                  "published view epochs must be monotone");
  // mo: relaxed — seq_ is only written by this thread; the seq_cst store
  // below is what publishes the increment.
  const uint64_t next = seq_.load(std::memory_order_relaxed) + 1;
  // Order matters twice over: the payload epoch advances before the
  // pointer swap (so staleness = published_epoch() - handle epoch can
  // never underflow), and the new view must be reachable through
  // `current_` before the sequence number that retires the old one
  // becomes visible (the safety argument in epoch_reclaim.h).
  // mo: seq_cst (all three) — the reclamation proof in epoch_reclaim.h
  // argues in the seq_cst total order over {slot pin, seq_ read, current_
  // read} vs {current_ store, seq_ store, slot scan}; weakening any one
  // of these breaks the case analysis.
  payload_epoch_.store(view->epoch, std::memory_order_seq_cst);
  current_.store(view.release(), std::memory_order_seq_cst);
  seq_.store(next, std::memory_order_seq_cst);
  // mo: relaxed — diagnostic counter; readers only need eventual totals.
  published_.fetch_add(1, std::memory_order_relaxed);
  if (old) retired_.emplace_back(std::unique_ptr<MatchView>(old), next);
  reclaim();
}

ViewHandle ViewChannel::acquire() {
  // Pin first, then load: the pinned sequence number is a lower bound on
  // the retire epoch of whatever the load returns, which is exactly what
  // keeps the view alive (see parallel/epoch_reclaim.h). A pin that is
  // stale by the time of the load only over-protects.
  // mo: seq_cst — the pin-before-load pair must sit in the same total
  // order as the writer's publish sequence (argument in epoch_reclaim.h).
  const uint64_t s = seq_.load(std::memory_order_seq_cst);
  const size_t slot = slots_.claim_and_pin(s);
  PDMM_ASSERT_MSG(slot != EpochSlots::kNoSlot,
                  "ViewChannel reader capacity exhausted "
                  "(raise max_readers)");
  // mo: seq_cst — must follow the pin in the total order; see above.
  const MatchView* v = current_.load(std::memory_order_seq_cst);
  if (!v) {
    // Nothing published yet: nothing to protect either.
    slots_.unpin(slot);
    return {};
  }
  return ViewHandle(this, v, slot);
}

void ViewChannel::reclaim() {
  if (retired_.empty()) return;
  const uint64_t min_pinned = slots_.min_pinned();  // kIdle == no reader
  size_t n = 0;
  for (; n < retired_.size() && retired_[n].second <= min_pinned; ++n) {
    // Unreachable by any reader: the writer may overwrite it exactly as
    // safely as it may free it.
    if (spares_.size() < kMaxSpares) {
      spares_.push_back(std::move(retired_[n].first));
    }
    // mo: relaxed — diagnostic counter; no ordering consumers.
    freed_.fetch_add(1, std::memory_order_relaxed);
  }
  // Frees the reclaimed views that did not become spares.
  retired_.erase(retired_.begin(),
                 retired_.begin() + static_cast<std::ptrdiff_t>(n));
}

std::unique_ptr<MatchView> ViewChannel::take_spare() {
  if (spares_.empty()) return nullptr;
  std::unique_ptr<MatchView> v = std::move(spares_.back());
  spares_.pop_back();
  return v;
}

}  // namespace pdmm
