#include "parallel/thread_pool.h"

#include <algorithm>

#include "util/assert.h"

namespace pdmm {

thread_local bool ThreadPool::in_parallel_region_ = false;

ThreadPool::ThreadPool(unsigned num_threads, bool allow_oversubscribe) {
  // hardware_concurrency() may legitimately return 0 ("unknown"); only
  // clamp against it when it reported a real value, otherwise honor the
  // caller's explicit count.
  const unsigned hw = std::thread::hardware_concurrency();
  if (num_threads == 0) num_threads = std::max(1u, hw);
  // A fork-join pool is CPU-bound by construction: threads beyond the
  // hardware's parallelism can only preempt each other (and the
  // coordinator), which measurably *slows down* parallel regions. Matcher
  // results do not depend on the pool size (value-level determinism), so
  // clamping is invisible except in wall-clock. Tests opt out to get
  // preemption-diverse schedules even on small machines.
  num_threads_ = (hw && !allow_oversubscribe) ? std::min(num_threads, hw)
                                              : num_threads;
  workers_.reserve(num_threads_ - 1);
  for (unsigned t = 1; t < num_threads_; ++t) {
    workers_.emplace_back([this, t] { worker_loop(t); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lk(mu_);
    shutdown_ = true;
  }
  job_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::run_blocked(size_t n, size_t grain,
                             const std::function<void(size_t, size_t)>& body) {
  if (n == 0) return;
  grain = std::max<size_t>(1, grain);
  // Serial paths: tiny ranges, single-thread pools, or nested calls.
  if (num_threads_ == 1 || n <= grain || in_parallel_region_) {
    body(0, n);
    return;
  }

  const size_t chunks = (n + grain - 1) / grain;
  PDMM_ASSERT_MSG(chunks <= 0xffffffffull,
                  "run_blocked: chunk count exceeds the claim-word capacity");
  uint32_t epoch32;
  {
    MutexLock lk(mu_);
    body_ = &body;
    job_n_ = n;
    job_grain_ = grain;
    job_chunks_ = chunks;
    // mo: relaxed — the release store of claim_ below publishes this zero
    // (and the descriptor fields, via the mutex) before any participant
    // can claim a chunk of the new job.
    done_chunks_.store(0, std::memory_order_relaxed);
    ++job_epoch_;
    epoch32 = static_cast<uint32_t>(job_epoch_);
    // mo: release — pairs with the acquire load in work_on_job; a
    // participant that observes the new epoch in the claim word must also
    // observe the descriptor fields written above.
    claim_.store((static_cast<uint64_t>(epoch32) << 32) | chunks,
                 std::memory_order_release);
  }
  // Wake no more workers than there are chunks beyond the coordinator's
  // own; surplus wakeups would only burn scheduler time re-sleeping.
  const size_t sleepers = num_threads_ - 1;
  const size_t wake = std::min(sleepers, chunks - 1);
  if (wake >= sleepers) {
    job_cv_.notify_all();
  } else {
    for (size_t i = 0; i < wake; ++i) job_cv_.notify_one();
  }

  work_on_job(epoch32);

  // Wait until every chunk has been *executed*. Workers that hold no chunk
  // are irrelevant here — only claimed-but-unfinished chunks keep the
  // region open.
  MutexLock lk(mu_);
  // mo: acquire — pairs with the acq_rel fetch_add in work_on_job so the
  // coordinator observes every write the chunk bodies made before their
  // completion was counted.
  while (done_chunks_.load(std::memory_order_acquire) != job_chunks_) {
    done_cv_.wait(mu_);
  }
  body_ = nullptr;
}

// tsa: deliberately lock-free — participants read the job descriptor
// (body_, job_n_, job_grain_, job_chunks_) without holding mu_. This is
// safe because (a) the descriptor is written under mu_ *before* the
// coordinator's claim_.store(release) publishes the job, (b) a read here
// happens only behind a successful CAS on claim_ whose acquire load
// observed that epoch, establishing happens-before with the writes, and
// (c) a successful claim implies the job is incomplete, so the
// coordinator is pinned inside run_blocked and cannot be overwriting the
// fields for a next job (it first waits for done_chunks_ == job_chunks_).
void ThreadPool::work_on_job(uint32_t epoch32)
    PDMM_NO_THREAD_SAFETY_ANALYSIS {
  in_parallel_region_ = true;
  while (true) {
    // mo: acquire — observing the current epoch here must also make the
    // job descriptor writes (published by the paired release store in
    // run_blocked) visible before the claimed chunk dereferences them.
    uint64_t cur = claim_.load(std::memory_order_acquire);
    bool claimed = false;
    size_t remaining = 0;
    while ((cur >> 32) == epoch32 && (remaining = cur & 0xffffffffull) != 0) {
      // mo: acq_rel on success — the decrement both takes ownership of
      // chunk `remaining-1` (release: no later claimant may see a stale
      // descriptor) and re-validates the epoch (acquire). Failure reloads
      // with acquire for the same reason as the initial load.
      if (claim_.compare_exchange_weak(cur, cur - 1,
                                       std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        claimed = true;
        break;
      }
    }
    if (!claimed) break;
    // Safe to read the job descriptor: a successful claim implies the job
    // is still incomplete, so the coordinator is pinned inside run_blocked
    // and the fields are stable (and were made visible by the mutex when
    // this thread observed the epoch). `total` must be a local: the
    // done_chunks_ increment below is what releases the coordinator, so
    // reading job_chunks_ after it would race with the next job's setup.
    const size_t total = job_chunks_;
    const size_t k = remaining - 1;
    const size_t begin = k * job_grain_;
    const size_t end = std::min(begin + job_grain_, job_n_);
    (*body_)(begin, end);
    // mo: acq_rel — release publishes this chunk body's writes to the
    // coordinator's paired acquire load in run_blocked; acquire orders
    // this thread's view behind the other chunks' completions so the
    // last-chunk detection below is exact.
    if (done_chunks_.fetch_add(1, std::memory_order_acq_rel) + 1 == total) {
      // Last chunk executed: release the coordinator. Taking the lock
      // orders this notify after the coordinator parks (or before it
      // evaluates the predicate), so the wakeup cannot be lost.
      MutexLock lk(mu_);
      done_cv_.notify_all();
    }
  }
  in_parallel_region_ = false;
}

void ThreadPool::worker_loop(unsigned /*tid*/) {
  uint64_t seen_epoch = 0;
  while (true) {
    uint32_t epoch32;
    {
      MutexLock lk(mu_);
      while (!shutdown_ && job_epoch_ == seen_epoch) job_cv_.wait(mu_);
      if (shutdown_) return;
      seen_epoch = job_epoch_;
      epoch32 = static_cast<uint32_t>(seen_epoch);
    }
    work_on_job(epoch32);
  }
}

}  // namespace pdmm
