// BatchResult::newly_matched / newly_unmatched contract: a post-state-wins
// diff of matched status per *edge identity*. An edge that both entered and
// left M within one batch appears in neither list; a deleted matched edge
// reports its loss even when its id is recycled and re-matched by a fresh
// insertion in the same batch (then the id appears in both lists — two
// different identities). Verified here against an independent model over
// adversarial streams (oscillation flips the same edges every other batch,
// which exercises insert->match->kick and delete-of-matched->re-match), on
// several thread counts, plus the diff lists are checked ascending and
// identical across thread counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>
#include <vector>

#include "core/matcher.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

Config diff_config(uint64_t seed) {
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = seed;
  cfg.initial_capacity = 1 << 12;
  cfg.check_invariants = true;
  return cfg;
}

std::set<EdgeId> matching_set(const DynamicMatcher& m) {
  const auto v = m.matching();
  return {v.begin(), v.end()};
}

// Applies one batch and checks the reported diff against the model:
//   newly_unmatched = {e matched before : deleted(e) or not matched after}
//   newly_matched   = {e matched after  : deleted(e) or not matched before}
// (deleted(e) splits e into two identities: the old one ends unmatched, and
// any post-batch matched occurrence of the id is a new identity.)
void apply_and_check(DynamicMatcher& m, const Batch& b) {
  const std::set<EdgeId> before = matching_set(m);
  std::vector<EdgeId> dels;
  dels.reserve(b.deletions.size());
  for (const auto& eps : b.deletions) {
    const EdgeId e = m.find_edge(eps);
    ASSERT_NE(e, kNoEdge);
    dels.push_back(e);
  }
  const std::set<EdgeId> deleted(dels.begin(), dels.end());

  const auto res = m.update(dels, b.insertions);
  const std::set<EdgeId> after = matching_set(m);

  std::vector<EdgeId> want_unmatched, want_matched;
  for (EdgeId e : before) {
    if (deleted.count(e) || !after.count(e)) want_unmatched.push_back(e);
  }
  for (EdgeId e : after) {
    if (deleted.count(e) || !before.count(e)) want_matched.push_back(e);
  }

  // The lists come out strictly ascending: duplicate-free (one entry per
  // identity transition) and in an order no container's member order can
  // reach.
  const auto ascending = [](const std::vector<EdgeId>& v) {
    return std::adjacent_find(v.begin(), v.end(), std::greater_equal<>()) ==
           v.end();
  };
  EXPECT_TRUE(ascending(res.newly_unmatched))
      << "newly_unmatched is not strictly ascending";
  EXPECT_TRUE(ascending(res.newly_matched))
      << "newly_matched is not strictly ascending";
  EXPECT_EQ(res.newly_unmatched, want_unmatched);
  EXPECT_EQ(res.newly_matched, want_matched);
}

TEST(BatchDiff, DeleteOfMatchedAndReinsertSameBatch) {
  ThreadPool pool(1);
  DynamicMatcher m(diff_config(3), pool);
  const std::vector<std::vector<Vertex>> edge = {{0, 1}};
  const auto r0 = m.insert_batch(edge);
  const EdgeId e0 = r0.inserted_ids[0];
  ASSERT_NE(e0, kNoEdge);
  ASSERT_TRUE(m.is_matched(e0));  // the only edge must be matched
  ASSERT_EQ(r0.newly_matched, std::vector<EdgeId>{e0});

  // Delete the matched edge and reinsert the same endpoints in one batch:
  // the old identity reports newly_unmatched; the new identity (recycled or
  // fresh id) must be matched again and reported newly_matched.
  const std::vector<EdgeId> dels = {e0};
  const auto r1 = m.update(dels, edge);
  const EdgeId e1 = r1.inserted_ids[0];
  ASSERT_NE(e1, kNoEdge);
  EXPECT_TRUE(m.is_matched(e1));
  EXPECT_EQ(r1.newly_unmatched, std::vector<EdgeId>{e0});
  EXPECT_EQ(r1.newly_matched, std::vector<EdgeId>{e1});
}

TEST(BatchDiff, InsertionsDisplacingAMatchedEdge) {
  ThreadPool pool(1);
  DynamicMatcher m(diff_config(5), pool);
  // Path 0-1-2-3: insert the middle edge first; it gets matched.
  const std::vector<std::vector<Vertex>> mid = {{1, 2}};
  const auto r0 = m.insert_batch(mid);
  const EdgeId e_mid = r0.inserted_ids[0];
  ASSERT_TRUE(m.is_matched(e_mid));

  // Deleting {1,2} while inserting the flanks frees 1 and 2; maximality
  // forces both flank edges into M. The diff must report exactly that.
  const std::vector<EdgeId> dels = {e_mid};
  const std::vector<std::vector<Vertex>> flanks = {{0, 1}, {2, 3}};
  const auto r1 = m.update(dels, flanks);
  EXPECT_EQ(r1.newly_unmatched, std::vector<EdgeId>{e_mid});
  std::vector<EdgeId> matched = r1.newly_matched;
  std::sort(matched.begin(), matched.end());
  std::vector<EdgeId> want(r1.inserted_ids);
  std::sort(want.begin(), want.end());
  EXPECT_EQ(matched, want);
  EXPECT_EQ(m.matching_size(), 2u);
}

// Model check over adversarial streams and thread counts. Oscillation
// deletes/reinserts the same core every other batch (in-batch re-match of
// freed vertices); churn mixes arbitrary insert/delete interleavings.
TEST(BatchDiff, MatchesModelAcrossStreamsAndThreadCounts) {
  for (const unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads, /*allow_oversubscribe=*/true);
    {
      DynamicMatcher m(diff_config(7), pool);
      ChurnStream::Options so;
      so.n = 192;
      so.target_edges = 384;
      so.seed = 11;
      ChurnStream stream(so);
      for (int i = 0; i < 50; ++i) apply_and_check(m, stream.next(48));
    }
    {
      DynamicMatcher m(diff_config(9), pool);
      OscillationStream::Options oo;
      oo.n = 160;
      oo.core_edges = 96;
      oo.background_edges = 160;
      oo.seed = 13;
      OscillationStream stream(oo);
      for (int i = 0; i < 60; ++i) apply_and_check(m, stream.next(40));
    }
  }
}

// The diff lists themselves are deterministic: identical across thread
// counts for the same stream and seed (same contract as the matcher state).
TEST(BatchDiff, DiffListsIdenticalAcrossThreadCounts) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads, /*allow_oversubscribe=*/true);
    DynamicMatcher m(diff_config(21), pool);
    WindowChurnStream::Options wo;
    wo.n = 160;
    wo.window = 256;
    wo.seed = 17;
    WindowChurnStream stream(wo);
    std::vector<std::vector<EdgeId>> log;
    for (int i = 0; i < 40; ++i) {
      const Batch b = stream.next(40);
      const auto res = m.update_by_endpoints(b.deletions, b.insertions);
      log.push_back(res.newly_matched);
      log.push_back(res.newly_unmatched);
    }
    return log;
  };
  const auto log1 = run(1);
  EXPECT_EQ(log1, run(2));
  EXPECT_EQ(log1, run(4));
}

}  // namespace
}  // namespace pdmm
