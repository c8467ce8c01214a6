// Unit tests for the parallel dictionary (PhaseDict), the [GMV91]-interface
// substrate of §2.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "dict/phase_dict.h"
#include "param_name.h"
#include "parallel/thread_pool.h"
#include "util/rng.h"

namespace pdmm {
namespace {

TEST(PhaseDict, SerialInsertFindErase) {
  PhaseDict<uint32_t> d;
  d.insert(100, 1);
  d.insert(200, 2);
  EXPECT_TRUE(d.contains(100));
  EXPECT_FALSE(d.contains(300));
  EXPECT_EQ(*d.find(200), 2u);
  d.erase(100);
  EXPECT_FALSE(d.contains(100));
  EXPECT_EQ(d.size(), 1u);
}

TEST(PhaseDict, GrowsThroughRebuilds) {
  PhaseDict<uint32_t> d(4);
  for (uint64_t k = 0; k < 10000; ++k) d.insert(k, static_cast<uint32_t>(k));
  EXPECT_EQ(d.size(), 10000u);
  for (uint64_t k = 0; k < 10000; ++k) {
    ASSERT_NE(d.find(k), nullptr);
    EXPECT_EQ(*d.find(k), k);
  }
}

TEST(PhaseDict, TombstoneChurnStaysLinear) {
  PhaseDict<uint32_t> d(16);
  // Insert/erase churn far beyond capacity: rebuilds must reclaim
  // tombstones or probing would degrade/overflow.
  for (uint64_t round = 0; round < 50000; ++round) {
    d.insert(round, 1);
    d.erase(round);
  }
  EXPECT_EQ(d.size(), 0u);
  EXPECT_LT(d.capacity(), 4096u);
}

TEST(PhaseDict, ReclaimingOwnTombstonesNeverRebuilds) {
  // Erase-then-reinsert of the same key lands on the key's own tombstone:
  // the table's live + tombstoned slot count does not grow, so insert may
  // not push it towards a rebuild.
  PhaseDict<uint32_t> d(1024);
  for (uint64_t k = 0; k < 1000; ++k) d.insert(k, 1);
  const size_t rebuilds = d.rebuilds();
  const size_t capacity = d.capacity();
  for (uint64_t i = 0; i < 10000; ++i) {
    const uint64_t k = (i * 7919) % 1000;
    d.erase(k);
    d.insert(k, static_cast<uint32_t>(i));
    ASSERT_EQ(*d.find(k), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(d.rebuilds(), rebuilds);
  EXPECT_EQ(d.capacity(), capacity);
  EXPECT_EQ(d.size(), 1000u);
}

class PhaseDictParallel : public testing::TestWithParam<unsigned> {};

TEST_P(PhaseDictParallel, BatchOpsMatchReference) {
  ThreadPool pool(GetParam());
  PhaseDict<uint64_t> d;
  std::unordered_map<uint64_t, uint64_t> ref;
  Xoshiro256 rng(77);

  for (int round = 0; round < 30; ++round) {
    // Insert a batch of fresh keys.
    std::vector<uint64_t> keys, vals;
    while (keys.size() < 500) {
      const uint64_t k = rng.below(1 << 20);
      if (ref.count(k)) continue;
      if (std::find(keys.begin(), keys.end(), k) != keys.end()) continue;
      keys.push_back(k);
      vals.push_back(k * 7);
    }
    d.batch_insert(pool, keys, vals);
    for (size_t i = 0; i < keys.size(); ++i) ref[keys[i]] = vals[i];

    // Erase a random half of the live keys.
    std::vector<uint64_t> live;
    for (const auto& [k, v] : ref) live.push_back(k);
    std::vector<uint64_t> victims;
    for (uint64_t k : live)
      if (rng.uniform() < 0.5) victims.push_back(k);
    d.batch_erase(pool, victims);
    for (uint64_t k : victims) ref.erase(k);

    // Batch lookup of a mix of present/absent keys.
    std::vector<uint64_t> queries = victims;
    for (const auto& [k, v] : ref) queries.push_back(k);
    std::vector<uint64_t> out;
    d.batch_lookup(pool, queries, out, ~uint64_t{0});
    for (size_t i = 0; i < queries.size(); ++i) {
      auto it = ref.find(queries[i]);
      EXPECT_EQ(out[i], it == ref.end() ? ~uint64_t{0} : it->second);
    }
    EXPECT_EQ(d.size(), ref.size());
  }

  // retrieve() returns exactly the live set.
  auto all = d.retrieve(pool);
  EXPECT_EQ(all.size(), ref.size());
  for (const auto& [k, v] : all) {
    ASSERT_TRUE(ref.count(k));
    EXPECT_EQ(ref[k], v);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, PhaseDictParallel,
                         testing::Values(1u, 2u, 8u), [](const auto& info) {
                           return testing_util::name_cat("t", info.param);
                         });

TEST(PhaseDict, ParallelInsertStress) {
  ThreadPool pool(8);
  PhaseDict<uint32_t> d;
  std::vector<uint64_t> keys(100000);
  std::vector<uint32_t> vals(keys.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    keys[i] = i * 2654435761u;  // distinct
    vals[i] = static_cast<uint32_t>(i);
  }
  d.batch_insert(pool, keys, vals);
  EXPECT_EQ(d.size(), keys.size());
  for (size_t i = 0; i < keys.size(); i += 997) {
    ASSERT_NE(d.find(keys[i]), nullptr);
    EXPECT_EQ(*d.find(keys[i]), vals[i]);
  }
}

}  // namespace
}  // namespace pdmm
