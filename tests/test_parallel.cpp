// Unit tests for the parallel runtime: pool, for, scan, reduce, pack, sort,
// grouped application.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <numeric>
#include <thread>
#include <utility>

#include "dict/batch_ops.h"
#include "parallel/pack.h"
#include "param_name.h"
#include "parallel/parallel_for.h"
#include "parallel/reduce.h"
#include "parallel/scan.h"
#include "parallel/sort.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace pdmm {
namespace {

class ParallelAcrossThreads : public testing::TestWithParam<unsigned> {};

TEST_P(ParallelAcrossThreads, ForCoversEveryIndexOnce) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel_for(pool, n, [&](size_t i) { hits[i].fetch_add(1); }, 128);
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST_P(ParallelAcrossThreads, ScanMatchesSerial) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(4);
  std::vector<uint64_t> in(12345);
  for (auto& x : in) x = rng.below(100);
  std::vector<uint64_t> out;
  const uint64_t total = scan_exclusive(pool, in, out, 64);
  uint64_t acc = 0;
  for (size_t i = 0; i < in.size(); ++i) {
    EXPECT_EQ(out[i], acc);
    acc += in[i];
  }
  EXPECT_EQ(total, acc);
}

TEST_P(ParallelAcrossThreads, ReduceSumAndAny) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 54321;
  EXPECT_EQ(parallel_sum(pool, n, [](size_t i) { return i; }, 100),
            n * (n - 1) / 2);
  EXPECT_TRUE(parallel_any(pool, n, [](size_t i) { return i == 54320; }, 64));
  EXPECT_FALSE(parallel_any(pool, n, [](size_t) { return false; }, 64));
}

TEST_P(ParallelAcrossThreads, PackKeepsOrder) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint32_t> vals(10000);
  std::iota(vals.begin(), vals.end(), 0);
  auto evens =
      pack_values(pool, vals, [&](size_t i) { return vals[i] % 2 == 0; }, 64);
  ASSERT_EQ(evens.size(), 5000u);
  for (size_t i = 0; i < evens.size(); ++i) EXPECT_EQ(evens[i], 2 * i);

  auto idx = pack_indices(pool, 1000, [](size_t i) { return i % 7 == 0; }, 64);
  for (size_t i = 0; i < idx.size(); ++i) EXPECT_EQ(idx[i], 7 * i);
}

TEST_P(ParallelAcrossThreads, SortMatchesStdSort) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(8);
  std::vector<uint64_t> v(200000);
  for (auto& x : v) x = rng();
  std::vector<uint64_t> ref = v;
  parallel_sort(pool, v, std::less<>{}, 1 << 10);
  std::sort(ref.begin(), ref.end());
  EXPECT_EQ(v, ref);
}

TEST_P(ParallelAcrossThreads, SortTinyAndEmpty) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint64_t> empty;
  parallel_sort(pool, empty);
  EXPECT_TRUE(empty.empty());
  std::vector<uint64_t> one{42};
  parallel_sort(pool, one);
  EXPECT_EQ(one[0], 42u);
}

TEST_P(ParallelAcrossThreads, SortU32MatchesStdSortAcrossSizesAndWidths) {
  // uint32_t keys under std::less take the radix pass from kRadixSortMin
  // keys up: every size around that cutoff, every key width (one to four
  // byte passes), duplicate-heavy, sorted and reversed inputs must come out
  // exactly as std::sort's.
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  Xoshiro256 rng(21);
  std::vector<size_t> sizes(301);
  std::iota(sizes.begin(), sizes.end(), size_t{0});
  sizes.push_back(1000);
  std::vector<uint32_t> buf;
  const auto expect_sorts = [&](std::vector<uint32_t> v, const char* shape,
                                unsigned bits) {
    std::vector<uint32_t> ref = v;
    std::sort(ref.begin(), ref.end());
    parallel_sort_with(pool, v, buf);
    EXPECT_EQ(v, ref) << shape << " input, n = " << v.size() << ", " << bits
                      << "-bit keys";
  };
  for (unsigned bits : {8u, 16u, 24u, 32u}) {
    const uint64_t mask = (uint64_t{1} << bits) - 1;
    for (size_t n : sizes) {
      std::vector<uint32_t> v(n);
      for (auto& x : v) x = static_cast<uint32_t>(rng() & mask);
      expect_sorts(v, "random", bits);
      std::vector<uint32_t> dup(n);  // three distinct keys, one the largest
      for (auto& x : dup) x = static_cast<uint32_t>((rng() % 3) * (mask / 2));
      expect_sorts(dup, "duplicate-heavy", bits);
      std::sort(v.begin(), v.end());
      expect_sorts(v, "sorted", bits);
      std::reverse(v.begin(), v.end());
      expect_sorts(v, "reversed", bits);
    }
  }
}

TEST_P(ParallelAcrossThreads, ApplyGroupedPartitionsByKey) {
  struct Rec {
    uint32_t group;
    uint32_t idx;  // makes the full key unique within its group
    uint32_t val;
  };
  Xoshiro256 rng(15);
  std::vector<Rec> recs(5000);
  std::vector<uint64_t> expected(97, 0);
  for (uint32_t i = 0; i < recs.size(); ++i) {
    auto& r = recs[i];
    r.group = static_cast<uint32_t>(rng.below(97));
    r.idx = i;
    r.val = static_cast<uint32_t>(rng.below(10));
    expected[r.group] += r.val;
  }
  std::vector<std::atomic<uint64_t>> got(97);
  std::vector<uint64_t> group_ids;
  std::vector<uint8_t> seen(97, 0);
  apply_grouped_unique(
      recs,
      [](const Rec& r) {
        return (static_cast<uint64_t>(r.group) << 32) | r.idx;
      },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t g) { return !std::exchange(seen[g], uint8_t{1}); },
      [&](uint64_t group, const Rec* b, const Rec* e) {
        uint64_t sum = 0;
        for (const Rec* r = b; r != e; ++r) {
          EXPECT_EQ(r->group, group);
          sum += r->val;
        }
        got[group].fetch_add(sum);
      },
      group_ids);
  for (size_t k = 0; k < 97; ++k) EXPECT_EQ(got[k].load(), expected[k]);
}

INSTANTIATE_TEST_SUITE_P(Threads, ParallelAcrossThreads,
                         testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return testing_util::name_cat("t", info.param);
                         });

TEST(ThreadPool, NestedParallelismRunsSerially) {
  ThreadPool pool(4);
  std::atomic<int> total{0};
  parallel_for(pool, 100, [&](size_t) {
    // Nested region must run inline without deadlocking.
    parallel_for(pool, 10, [&](size_t) { total.fetch_add(1); }, 1);
  }, 1);
  EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, ManySmallJobsDoNotLeakOrDeadlock) {
  ThreadPool pool(4);
  for (int i = 0; i < 2000; ++i) {
    std::atomic<int> c{0};
    parallel_for(pool, 8, [&](size_t) { c.fetch_add(1); }, 1);
    ASSERT_EQ(c.load(), 8);
  }
}

TEST_P(ParallelAcrossThreads, BlocksPassAlignedBlockIndex) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const size_t n = 10000;
  const size_t grain = 128;
  std::vector<std::atomic<uint32_t>> hits((n + grain - 1) / grain);
  parallel_for_blocks(pool, n, grain, [&](size_t blk, size_t b, size_t e) {
    // Blocks are grain-aligned and the passed index matches the range.
    EXPECT_EQ(b % grain, 0u);
    EXPECT_EQ(blk, b / grain);
    EXPECT_LE(e, n);
    hits[blk].fetch_add(1);
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST_P(ParallelAcrossThreads, PackIntoReusesBuffersAndKeepsOrder) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  std::vector<uint32_t> vals(30000);
  std::iota(vals.begin(), vals.end(), 0u);
  std::vector<uint32_t> out;
  std::vector<uint8_t> flags;
  for (int rep = 0; rep < 3; ++rep) {
    pack_values_into(
        pool, vals, [&](size_t i) { return vals[i] % 3 == 0; }, out, flags,
        64);
    ASSERT_EQ(out.size(), 10000u);
    for (size_t i = 0; i < out.size(); ++i) ASSERT_EQ(out[i], i * 3);
  }
}

TEST_P(ParallelAcrossThreads, ApplyGroupedUniqueOrdersWithinGroups) {
  struct Rec {
    uint32_t group;
    uint32_t item;
  };
  Xoshiro256 rng(77);
  std::vector<Rec> recs(4000);
  for (size_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<uint32_t>(rng.below(31)),
               static_cast<uint32_t>(i)};  // unique within its group
  }
  std::vector<std::vector<uint32_t>> got(31);
  std::vector<uint64_t> group_ids;
  std::vector<uint8_t> seen(31, 0);
  apply_grouped_unique(
      recs,
      [](const Rec& r) {
        return (static_cast<uint64_t>(r.group) << 32) | r.item;
      },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t g) { return !std::exchange(seen[g], uint8_t{1}); },
      [&](uint64_t g, const Rec* b, const Rec* e) {
        auto& sink = got[g];
        for (const Rec* r = b; r != e; ++r) {
          EXPECT_EQ(r->group, g);
          sink.push_back(r->item);
        }
      },
      group_ids);
  for (const auto& sink : got) {
    // Unique total keys pin ascending in-group order for any grain/threads.
    EXPECT_TRUE(std::is_sorted(sink.begin(), sink.end()));
  }
  size_t total = 0;
  for (const auto& sink : got) total += sink.size();
  EXPECT_EQ(total, recs.size());
}

// The contract of apply_grouped_unique on records interleaved across
// groups: every group sees exactly its records, in ascending key order,
// each applied group comes back once, in the order of its first record,
// with its caller-owned flag set (and no other flag), and the cost charge
// is the EREW algorithm's two rounds (one over the records, one over the
// groups).
struct GroupedRec {
  uint32_t group;
  uint32_t item;
};

struct GroupedRun {
  std::vector<std::vector<uint32_t>> seqs;  // items per group, as applied
  std::vector<uint64_t> group_ids;
  std::vector<uint8_t> flags;  // the dedupe flag of each group afterwards
  CostCounters cost;
};

GroupedRun run_grouped(const std::vector<GroupedRec>& recs, size_t groups) {
  GroupedRun out;
  out.seqs.resize(groups);
  out.flags.assign(groups, 0);
  apply_grouped_unique(
      recs,
      [](const GroupedRec& r) {
        return (static_cast<uint64_t>(r.group) << 32) | r.item;
      },
      [](uint64_t k) { return k >> 32; },
      [&](uint64_t g) { return !std::exchange(out.flags[g], uint8_t{1}); },
      [&](uint64_t g, const GroupedRec* b, const GroupedRec* e) {
        for (const GroupedRec* r = b; r != e; ++r) {
          EXPECT_EQ(r->group, g);
          out.seqs[g].push_back(r->item);
        }
      },
      out.group_ids, &out.cost);
  return out;
}

TEST(ApplyGrouped, InterleavedGroupsApplyInKeyOrder) {
  // Interleaved across groups, key-ascending within each group (the item
  // is the input position), and every odd group id left unused.
  constexpr uint32_t kRecs = 600;
  constexpr uint32_t kGroups = 41;
  Xoshiro256 rng(23);
  std::vector<GroupedRec> recs(kRecs);
  std::vector<std::vector<uint32_t>> expected(kGroups);
  for (uint32_t i = 0; i < kRecs; ++i) {
    recs[i] = {static_cast<uint32_t>(2 * rng.below(kGroups / 2)), i};
    expected[recs[i].group].push_back(i);
  }
  std::vector<uint64_t> used;  // each used group once, first-seen order
  std::vector<uint8_t> used_flag(kGroups, 0);
  for (const GroupedRec& r : recs)
    if (!std::exchange(used_flag[r.group], uint8_t{1})) used.push_back(r.group);

  const GroupedRun run = run_grouped(recs, kGroups);
  EXPECT_EQ(run.seqs, expected);
  EXPECT_EQ(run.group_ids, used);
  EXPECT_EQ(run.flags, used_flag);
  EXPECT_EQ(run.cost.rounds, 2u);
  EXPECT_EQ(run.cost.work, kRecs + used.size());

  // No records: no groups and no rounds charged.
  const GroupedRun none = run_grouped({}, kGroups);
  EXPECT_TRUE(none.group_ids.empty());
  EXPECT_EQ(none.cost.rounds, 0u);
}

#ifndef NDEBUG
TEST(ApplyGroupedDeath, DescendingKeysWithinAGroupAbort) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  // Group 0 receives item 5 before item 3: the pass would apply them out
  // of key order, so debug builds refuse the input.
  const std::vector<GroupedRec> recs{{0, 5}, {1, 1}, {0, 3}};
  EXPECT_DEATH(run_grouped(recs, 2), "ascend by key within each group");
}
#endif

TEST(ThreadPool, ClampsToHardwareConcurrency) {
  // When hardware_concurrency() reports 0 ("unknown"), the pool honors the
  // caller's count instead of clamping — mirror that contract here.
  const unsigned hw = std::thread::hardware_concurrency();
  ThreadPool pool(hw + 13);
  EXPECT_EQ(pool.num_threads(), hw ? hw : hw + 13);
  ThreadPool small(1);
  EXPECT_EQ(small.num_threads(), 1u);
}

TEST(ThreadPool, LargeRegionsCompleteWithManyThreads) {
  // Regression net for the chunk-claim completion protocol: many regions
  // of varying sizes, all must complete with every chunk executed once.
  ThreadPool pool(8, /*allow_oversubscribe=*/true);
  Xoshiro256 rng(5);
  for (int it = 0; it < 300; ++it) {
    const size_t n = 1 + rng.below(50000);
    std::vector<std::atomic<uint8_t>> hit(n);
    parallel_for(pool, n, [&](size_t i) { hit[i].fetch_add(1); }, 64);
    for (size_t i = 0; i < n; ++i) ASSERT_EQ(hit[i].load(), 1u) << i;
  }
}

TEST(CostModel, AutoGrainIsThreadIndependent) {
  // The contract the deterministic sorts rely on: grain depends on n only.
  EXPECT_EQ(auto_grain(100, 2048), 2048u);
  EXPECT_EQ(auto_grain(1 << 20, 2048), (1u << 20) / kMaxChunksPerRegion);
  EXPECT_GE(auto_grain(1 << 20, 2048) * kMaxChunksPerRegion, 1u << 20);
}

TEST(CostModel, RoundsAndWorkAccumulate) {
  CostCounters c;
  c.round(10);
  c.round(5);
  c.add_work(3);
  EXPECT_EQ(c.rounds, 2u);
  EXPECT_EQ(c.work, 18u);
  CostCounters d;
  d.round(1);
  c += d;
  EXPECT_EQ(c.rounds, 3u);
}

}  // namespace
}  // namespace pdmm
