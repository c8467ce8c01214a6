// MatchViewService: glues a DynamicMatcher to a ViewChannel so the
// concurrent read path needs one line of setup.
//
//   DynamicMatcher m(cfg, pool);
//   MatchViewService serve(m);            // publishes a view per batch
//   ...
//   // updater thread:
//   m.update(dels, ins);                  // hook republishes automatically
//   // any reader thread:
//   ViewHandle h = serve.acquire();
//   if (h && h->is_matched(e)) ...        // wait-free queries, epoch h->epoch
//
// The service installs the matcher's post-batch hook; constructing it
// publishes an initial view of the current state (epoch = batches so far),
// so readers always find something once the service exists. Destroying the
// service detaches the hook and (with the channel) frees every view, so it
// must outlive all reader handles and die before the matcher.
//
// Exactly one service per matcher at a time (the hook slot is single);
// one updater thread at a time (same contract as update() itself).
#pragma once

#include <cstddef>
#include <memory>

#include "core/matcher.h"
#include "serve/view_channel.h"

namespace pdmm {

class MatchViewService {
 public:
  struct Options {
    // Bound on concurrently outstanding ViewHandles (see ViewChannel).
    size_t max_readers = 64;
    // Install the matcher's post-batch hook so every update() republishes
    // automatically. Disable when another component owns publication —
    // the pipelined UpdateEngine captures views at the epoch barrier and
    // publishes them from its own stage thread (the channel's single
    // writer), so the hook must stay free and publish_now() unused.
    bool install_hook = true;
  };

  explicit MatchViewService(DynamicMatcher& matcher)
      : MatchViewService(matcher, Options()) {}
  MatchViewService(DynamicMatcher& matcher, Options opt);
  ~MatchViewService();

  MatchViewService(const MatchViewService&) = delete;
  MatchViewService& operator=(const MatchViewService&) = delete;

  // Reader side (any thread).
  ViewHandle acquire() { return channel_.acquire(); }
  uint64_t published_epoch() const { return channel_.published_epoch(); }

  // Updater-thread-only: capture and publish a view (the hook calls it
  // after every batch; call it directly after load() or rebuild(), which
  // bypass update()). The view is built into a spare the channel
  // reclaimed, as a delta against the current view when that is the
  // matcher's last capture (DynamicMatcher::make_view_into).
  void publish_now();

  ViewChannel& channel() { return channel_; }
  const ViewChannel& channel() const { return channel_; }

 private:
  DynamicMatcher& matcher_;
  ViewChannel channel_;
  bool hooked_;  // this service owns the matcher's post-batch hook slot
};

}  // namespace pdmm
