// parallel_for and friends: the basic data-parallel mapping primitives.
//
// All primitives take the pool explicitly; none of them allocate hidden
// global state. Grain sizes default to auto-sizing (see cost_model.h): a
// chunk is never smaller than kDefaultGrain — which amortizes scheduling
// overhead for the element-cheap loops typical in this library — and a
// region is never carved into more than kMaxChunksPerRegion chunks. The
// resolved grain depends only on n, never on the thread count, so
// chunk-structured results are identical across pool sizes.
#pragma once

#include <cstddef>
#include <functional>

#include "parallel/cost_model.h"
#include "parallel/thread_pool.h"

namespace pdmm {

inline constexpr size_t kDefaultGrain = 2048;

// Grain value meaning "auto-size from n" (the default everywhere).
inline constexpr size_t kAutoGrain = 0;

inline size_t resolve_grain(size_t n, size_t grain, size_t min_grain) {
  return grain == kAutoGrain ? auto_grain(n, min_grain) : grain;
}

// Applies f(i) for every i in [0, n).
template <typename F>
void parallel_for(ThreadPool& pool, size_t n, F&& f,
                  size_t grain = kAutoGrain) {
  if (n == 0) return;
  const std::function<void(size_t, size_t)> body = [&f](size_t b, size_t e) {
    for (size_t i = b; i < e; ++i) f(i);
  };
  pool.run_blocked(n, resolve_grain(n, grain, kDefaultGrain), body);
}

// Applies f(block, begin, end) over the aligned blocks [k*grain,
// (k+1)*grain) covering [0, n), passing the block index k through. Callers
// that keep per-block side arrays (scan's block sums, the dictionary's
// retrieve snapshot) index them by the callback's block argument instead of
// re-deriving it from a stride assumption, so a grain change can never
// silently corrupt the result. Returns the resolved grain (== the number of
// blocks is (n + grain - 1) / grain).
template <typename F>
size_t parallel_for_blocks(ThreadPool& pool, size_t n, size_t grain, F&& f) {
  const size_t g = resolve_grain(n, grain, kDefaultGrain);
  if (n == 0) return g;
  // Parallel chunks from the pool are exactly one grain-aligned block; the
  // pool's serial fallback hands one [0, n) span, which the wrapper cuts
  // back into aligned blocks so the callback's contract holds either way.
  const std::function<void(size_t, size_t)> body = [&f, g](size_t b,
                                                           size_t e) {
    for (size_t lo = b; lo < e; lo += g) {
      f(lo / g, lo, lo + g < e ? lo + g : e);
    }
  };
  pool.run_blocked(n, g, body);
  return g;
}

}  // namespace pdmm
