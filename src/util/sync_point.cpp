#include "util/sync_point.h"

#include <mutex>
#include <utility>

namespace pdmm {

namespace {

// The hook lives behind a mutex so concurrent fire()s from pipelined
// stage threads serialize through one copy of the std::function. Fires
// are rare-path (tests only); contention is irrelevant.
std::mutex& hook_mutex() {
  static std::mutex mu;
  return mu;
}

SyncPoints::Hook& hook_slot() {
  static SyncPoints::Hook hook;
  return hook;
}

}  // namespace

std::atomic<bool> SyncPoints::armed_{false};

SyncPoints::Action SyncPoints::fire_slow(const char* point, uint64_t arg) {
  std::lock_guard<std::mutex> lk(hook_mutex());
  Hook& hook = hook_slot();
  if (!hook) return kProceed;
  return hook(point, arg);
}

void SyncPoints::install(Hook hook) {
  std::lock_guard<std::mutex> lk(hook_mutex());
  hook_slot() = std::move(hook);
  // mo: release — pairs with fire()'s acquire load; publishes the hook.
  armed_.store(static_cast<bool>(hook_slot()), std::memory_order_release);
}

void SyncPoints::clear() { install(nullptr); }

}  // namespace pdmm
