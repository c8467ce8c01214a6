// Allocation budget of a steady-state update(): the Scratch arena claim in
// docs/ARCHITECTURE.md as a checked fact. This binary replaces the global
// operator new with a counting one, so every heap allocation in the
// process is seen; the test counts only the ones made inside update().
//
// Counts are a property of an optimized, uninstrumented build: assertions
// and sanitizers allocate on their own. The test skips unless NDEBUG is
// defined and no sanitizer is on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/matcher.h"
#include "workload/generators.h"

namespace {

std::atomic<uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  // mo: relaxed — a statistic read on the allocating thread itself.
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  const std::size_t size = n == 0 ? 1 : n;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace pdmm {
namespace {

std::vector<EdgeId> resolve(const DynamicMatcher& m, const Batch& b) {
  std::vector<EdgeId> ids;
  ids.reserve(b.deletions.size());
  for (const auto& eps : b.deletions) ids.push_back(m.find_edge(eps));
  return ids;
}

// churn_small_t1's shape: n = 2^13, ~2n live edges, one thread; warmed with
// 3 * 2^14 updates at k = 1024, then 400 measured batches at k = 256.
TEST(AllocBudget, SteadyStateBatchesStayUnderBudget) {
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "allocation counts are measured on Release builds only";
#endif
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 0x5eed;
  cfg.initial_capacity = 1ull << 22;
  DynamicMatcher m(cfg, pool);
  ChurnStream::Options so;
  so.n = 1 << 13;
  so.target_edges = 1 << 14;
  so.seed = 1;
  ChurnStream stream(so);
  for (size_t u = 0; u < (3u << 14); u += 1024) {
    const Batch b = stream.next(1024);
    m.update(resolve(m, b), b.insertions);
  }

  constexpr size_t kBatches = 400;
  uint64_t allocs = 0;
  for (size_t i = 0; i < kBatches; ++i) {
    const Batch b = stream.next(256);
    const std::vector<EdgeId> dels = resolve(m, b);
    // mo: relaxed — one-thread pool: update() allocates on this thread.
    const uint64_t before = g_allocs.load(std::memory_order_relaxed);
    m.update(dels, b.insertions);
    // mo: relaxed — as above.
    allocs += g_allocs.load(std::memory_order_relaxed) - before;
  }
  const double per_batch = static_cast<double>(allocs) / kBatches;
  std::printf("steady-state allocations per update() at k = 256: %.1f\n",
              per_batch);
  // Measured 8.8 at this shape; the bound leaves room for allocator
  // noise, not for a new per-batch allocation source.
  EXPECT_LE(per_batch, 12.0);
}

}  // namespace
}  // namespace pdmm
