// A fork-join thread pool implementing the work/depth execution model.
//
// The pool owns `num_threads - 1` persistent workers; the calling thread
// participates in every parallel region, so a pool of size 1 degenerates to
// inline serial execution with no synchronization. Parallel regions hand out
// grain-aligned chunks of an index range through an atomic claim word
// (self-scheduling), which keeps load balanced without work stealing.
//
// Completion is chunk-counted, not worker-counted: a region is done when
// every *chunk* has been executed, regardless of which threads ran them. A
// worker that is slow to wake (common when the machine has fewer cores than
// the pool has threads) simply finds no chunk left and goes back to sleep —
// it never blocks the coordinating thread, which previously had to wait for
// every worker to check in and made oversubscribed pools *slower* than
// serial execution.
//
// The claim word packs (epoch, remaining chunks), so a stale worker can
// never claim into a newer job, and job descriptors are only dereferenced
// behind a successful claim — which can only happen while the coordinator
// is still inside the region.
//
// The pool is the single scheduling substrate for every parallel primitive
// in pdmm (parallel_for, scan, pack, sort, the dictionary's batch ops, and
// all phases of the dynamic matcher).
//
// Thread-safety contract (machine-checked under the `tidy` preset): the
// job descriptor fields are guarded by mu_ for the coordinator/worker
// handshake; the one deliberate lock-free access path — participants
// reading the descriptor behind a successful claim — is confined to
// work_on_job(), which carries the documented analysis exemption.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace pdmm {

class ThreadPool {
 public:
  // num_threads == 0 means std::thread::hardware_concurrency(). Requests
  // beyond the hardware's parallelism are clamped to it — oversubscribing a
  // CPU-bound fork-join pool only adds preemption, and matcher results are
  // independent of the pool size, so the clamp never changes behaviour.
  // allow_oversubscribe disables the clamp: race/determinism tests use it
  // so thread counts above the core count still produce genuinely
  // concurrent (preemption-diverse) schedules on small machines.
  explicit ThreadPool(unsigned num_threads = 0,
                      bool allow_oversubscribe = false);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  unsigned num_threads() const { return num_threads_; }

  // Runs body(begin, end) over disjoint grain-aligned chunks covering
  // [0, n): every chunk is [k*grain, min((k+1)*grain, n)) for some k.
  // Blocks until all chunks complete. Reentrant calls from inside a
  // parallel region execute serially (no nested parallelism; the
  // algorithms in this library never need it). Callers must not hold mu_
  // (they cannot — it is private — but the annotation also catches
  // accidental re-entry from future pool-internal code).
  void run_blocked(size_t n, size_t grain,
                   const std::function<void(size_t, size_t)>& body)
      PDMM_EXCLUDES(mu_);

 private:
  void worker_loop(unsigned tid) PDMM_EXCLUDES(mu_);
  void work_on_job(uint32_t epoch32);

  unsigned num_threads_;
  std::vector<std::thread> workers_;

  Mutex mu_;
  CondVar job_cv_;
  CondVar done_cv_;

  // Job description. Written under mu_ by the coordinator before the claim
  // word publishes the job; read by participants only behind a successful
  // claim of that job's epoch (or, for workers, after observing the epoch
  // advance under mu_), so the plain fields race with nothing. The
  // GUARDED_BY annotations cover every access except the claim-protected
  // reads inside work_on_job(), which is the single documented exemption.
  const std::function<void(size_t, size_t)>* body_ PDMM_GUARDED_BY(mu_) =
      nullptr;
  size_t job_n_ PDMM_GUARDED_BY(mu_) = 0;
  size_t job_grain_ PDMM_GUARDED_BY(mu_) = 1;
  size_t job_chunks_ PDMM_GUARDED_BY(mu_) = 0;
  // (epoch32 << 32) | remaining-chunk count. Claims decrement the low half;
  // chunk k = remaining - 1 is executed as [k*grain, ...). A mismatched
  // epoch or a zero count means "nothing to claim here".
  std::atomic<uint64_t> claim_{0};
  std::atomic<size_t> done_chunks_{0};
  uint64_t job_epoch_ PDMM_GUARDED_BY(mu_) = 0;  // full-width
  bool shutdown_ PDMM_GUARDED_BY(mu_) = false;
  static thread_local bool in_parallel_region_;
};

}  // namespace pdmm
