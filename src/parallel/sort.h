// Parallel merge sort: sort fixed-size blocks in parallel, then merge pairs
// of runs level by level (each merge split in two around a median so both
// halves merge in parallel). O(n log n) work, O(log^2 n) depth — sufficient
// for the polylog-depth budget of every phase that sorts.
//
// Determinism contract: the result is a pure function of (input, grain) —
// the block partition fixes which std::sort/std::merge calls happen, and
// each of those is deterministic. The grain defaults to a function of n
// only (never the thread count), so equal-key orderings are identical
// across pool sizes. Callers whose downstream state depends on the order
// of equal keys should still prefer total-order comparators (see
// dict/batch_ops.h) — that makes the order independent of the grain too.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace pdmm {

inline constexpr size_t kSortSerialCutoff = size_t{1} << 13;

// Sorts v; `buf` is the merge scratch (resized as needed, contents
// clobbered) so repeated sorts in a hot loop can reuse one allocation.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort_with(ThreadPool& pool, std::vector<T>& v,
                        std::vector<T>& buf, Cmp cmp = Cmp{},
                        size_t grain = kAutoGrain) {
  const size_t n = v.size();
  grain = resolve_grain(n, grain, kSortSerialCutoff);
  if (n <= grain || pool.num_threads() == 1) {
    std::sort(v.begin(), v.end(), cmp);
    return;
  }

  // Sort blocks of `grain` in parallel.
  const size_t num_blocks = (n + grain - 1) / grain;
  parallel_for(
      pool, num_blocks,
      [&](size_t b) {
        const size_t lo = b * grain;
        const size_t hi = std::min(lo + grain, n);
        std::sort(v.begin() + static_cast<ptrdiff_t>(lo),
                  v.begin() + static_cast<ptrdiff_t>(hi), cmp);
      },
      1);

  // Merge runs pairwise, ping-ponging between v and the buffer.
  buf.resize(n);
  T* src = v.data();
  T* dst = buf.data();
  for (size_t run = grain; run < n; run *= 2) {
    const size_t pairs = (n + 2 * run - 1) / (2 * run);
    parallel_for(
        pool, pairs,
        [&](size_t p) {
          const size_t lo = p * 2 * run;
          const size_t mid = std::min(lo + run, n);
          const size_t hi = std::min(lo + 2 * run, n);
          std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, cmp);
        },
        1);
    std::swap(src, dst);
  }
  if (src != v.data()) {
    parallel_for(pool, n, [&](size_t i) { v[i] = src[i]; });
  }
}

template <typename T, typename Cmp = std::less<T>>
void parallel_sort(ThreadPool& pool, std::vector<T>& v, Cmp cmp = Cmp{},
                   size_t grain = kAutoGrain) {
  std::vector<T> buf;
  parallel_sort_with(pool, v, buf, cmp, grain);
}

}  // namespace pdmm
