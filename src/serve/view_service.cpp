#include "serve/view_service.h"

namespace pdmm {

MatchViewService::MatchViewService(DynamicMatcher& matcher, Options opt)
    : matcher_(matcher), channel_(opt.max_readers), hooked_(opt.install_hook) {
  // The service is constructed by the thread that drives updates (its
  // documented contract), which is exactly the matcher's updater role —
  // hook registration is updater-only state. When install_hook is off the
  // caller (the pipelined engine) owns the hook slot and every publication
  // after this initial one.
  matcher_.updater_role().assert_held();
  if (hooked_) {
    matcher_.set_post_batch_hook(
        [this](const DynamicMatcher::BatchResult&) { publish_now(); });
  }
  publish_now();
}

MatchViewService::~MatchViewService() {
  // Destruction happens on the updater thread after updates stopped
  // (documented contract: the service dies before the matcher).
  matcher_.updater_role().assert_held();
  if (hooked_) matcher_.set_post_batch_hook(nullptr);
}

void MatchViewService::publish_now() {
  // Updater-thread-only by contract (one updater per matcher, and the
  // post-batch hook runs on it), so this thread is the channel's single
  // writer.
  channel_.writer_role().assert_held();
  std::unique_ptr<MatchView> view = channel_.take_spare();
  if (!view) view = std::make_unique<MatchView>();
  // The current view is this service's previous capture unless another
  // capture of the matcher came between; make_view_into tells the two
  // apart and falls back to the full build.
  matcher_.make_view_into(*view, channel_.current());
  channel_.publish(std::move(view));
}

}  // namespace pdmm
