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
//
// The serial path sorts uint32_t keys under std::less (edge ids, vertex
// ids) with an LSD radix sort from kRadixSortMin elements up: equal keys
// are indistinguishable, so the output is exactly std::sort's.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"

namespace pdmm {

inline constexpr size_t kSortSerialCutoff = size_t{1} << 13;
// Below this many keys std::sort beats the radix sort's histogram setup.
inline constexpr size_t kRadixSortMin = 64;

// Sorts v stably by key(x), a uint32_t, with one 8-bit counting pass per
// byte that the largest key needs, ping-ponging through `buf`. Elements
// with equal keys keep their input order.
template <typename T, typename Key>
void radix_sort_by(std::vector<T>& v, std::vector<T>& buf, Key key) {
  const size_t n = v.size();
  uint32_t all = 0;
  for (const T& x : v) all |= key(x);
  unsigned passes = 0;
  while (passes < 4 && (all >> (8 * passes)) != 0) ++passes;
  if (passes == 0) return;  // every key is 0
  size_t count[4][256];
  for (unsigned p = 0; p < passes; ++p) std::fill_n(count[p], 256, 0);
  for (const T& x : v) {
    const uint32_t k = key(x);
    for (unsigned p = 0; p < passes; ++p) ++count[p][(k >> (8 * p)) & 0xFF];
  }
  buf.resize(n);
  T* src = v.data();
  T* dst = buf.data();
  for (unsigned p = 0; p < passes; ++p) {
    size_t at = 0;  // bucket counts become bucket starts
    for (size_t& c : count[p]) {
      const size_t k = c;
      c = at;
      at += k;
    }
    const unsigned shift = 8 * p;
    for (size_t i = 0; i < n; ++i) {
      dst[count[p][(key(src[i]) >> shift) & 0xFF]++] = src[i];
    }
    std::swap(src, dst);
  }
  if (src != v.data()) std::copy(src, src + n, v.data());
}

// Sorts v ascending (radix_sort_by on the value itself).
inline void radix_sort_u32(std::vector<uint32_t>& v,
                           std::vector<uint32_t>& buf) {
  radix_sort_by(v, buf, [](uint32_t x) { return x; });
}

// Sorts v; `buf` is the merge scratch (resized as needed, contents
// clobbered) so repeated sorts in a hot loop can reuse one allocation.
template <typename T, typename Cmp = std::less<T>>
void parallel_sort_with(ThreadPool& pool, std::vector<T>& v,
                        std::vector<T>& buf, Cmp cmp = Cmp{},
                        size_t grain = kAutoGrain) {
  const size_t n = v.size();
  grain = resolve_grain(n, grain, kSortSerialCutoff);
  if (n <= grain || pool.num_threads() == 1) {
    if constexpr (std::is_same_v<T, uint32_t> &&
                  std::is_same_v<Cmp, std::less<uint32_t>>) {
      if (n >= kRadixSortMin) {
        radix_sort_u32(v, buf);
        return;
      }
    }
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
