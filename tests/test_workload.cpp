// Tests of the workload generators.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "baselines/pdmm_adapter.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

TEST(ChurnStream, GrowsToTargetThenChurns) {
  ChurnStream::Options opt;
  opt.n = 100;
  opt.target_edges = 200;
  opt.seed = 1;
  ChurnStream s(opt);
  // Warm-up: first batches are insert-only.
  Batch b = s.next(50);
  EXPECT_EQ(b.insertions.size(), 50u);
  EXPECT_TRUE(b.deletions.empty());
  size_t total = 50;
  while (total < 1000) {
    b = s.next(50);
    total += 50;
  }
  // At steady state both kinds appear and live size hugs the target.
  b = s.next(200);
  EXPECT_GT(b.deletions.size(), 0u);
  EXPECT_GT(b.insertions.size(), 0u);
  EXPECT_NEAR(static_cast<double>(s.live().size()), 200.0, 40.0);
}

TEST(ChurnStream, NeverDuplicatesLiveEdges) {
  ChurnStream::Options opt;
  opt.n = 30;  // tiny universe forces collisions
  opt.target_edges = 100;
  opt.seed = 2;
  ChurnStream s(opt);
  std::set<std::vector<Vertex>> live;
  for (int i = 0; i < 60; ++i) {
    const Batch b = s.next(20);
    for (const auto& eps : b.deletions) {
      ASSERT_EQ(live.count(eps), 1u);
      live.erase(eps);
    }
    for (const auto& eps : b.insertions) {
      ASSERT_EQ(live.count(eps), 0u);
      live.insert(eps);
    }
  }
  EXPECT_EQ(live.size(), s.live().size());
}

TEST(ChurnStream, ZipfSkewProducesHubs) {
  ChurnStream::Options opt;
  opt.n = 1000;
  opt.target_edges = 2000;
  opt.zipf_s = 1.1;
  opt.seed = 3;
  ChurnStream s(opt);
  std::vector<int> degree(opt.n, 0);
  for (int i = 0; i < 40; ++i) {
    for (const auto& eps : s.next(50).insertions)
      for (Vertex v : eps) degree[v]++;
  }
  // Top-10 vertices should absorb a large share of endpoints.
  std::sort(degree.rbegin(), degree.rend());
  int top = 0, total = 0;
  for (int i = 0; i < 1000; ++i) {
    total += degree[i];
    if (i < 10) top += degree[i];
  }
  EXPECT_GT(top * 5, total) << "zipf skew should concentrate degrees";
}

TEST(SlidingWindow, MaintainsExactWindow) {
  SlidingWindowStream::Options opt;
  opt.n = 200;
  opt.window = 100;
  opt.seed = 4;
  SlidingWindowStream s(opt);
  size_t inserted = 0, deleted = 0;
  for (int i = 0; i < 30; ++i) {
    const Batch b = s.next(25);
    inserted += b.insertions.size();
    deleted += b.deletions.size();
    EXPECT_EQ(s.live().size(), inserted - deleted);
    EXPECT_LE(s.live().size(), opt.window);
  }
  EXPECT_EQ(s.live().size(), opt.window);
  EXPECT_EQ(inserted, 750u);
  EXPECT_EQ(deleted, 650u);
}

TEST(SlidingWindow, DeletesOldestFirst) {
  SlidingWindowStream::Options opt;
  opt.n = 500;
  opt.window = 10;
  opt.seed = 5;
  SlidingWindowStream s(opt);
  const Batch first = s.next(10);  // fills the window exactly
  EXPECT_TRUE(first.deletions.empty());
  const Batch second = s.next(10);
  ASSERT_EQ(second.deletions.size(), 10u);
  // The deletions of the second batch are exactly the first batch's inserts.
  for (size_t i = 0; i < 10; ++i)
    EXPECT_EQ(second.deletions[i], first.insertions[i]);
}

TEST(Adversarial, DeletesOnlyMatchedEdges) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.initial_capacity = 1 << 12;
  cfg.check_invariants = true;
  PdmmAdapter m(cfg, pool);

  AdversarialMatchedDeleter::Options opt;
  opt.n = 100;
  opt.seed = 6;
  AdversarialMatchedDeleter adv(opt);

  // Grow the graph through the adversary so its mirror stays in sync
  // (early batches find few or no matched edges to delete).
  for (int i = 0; i < 10; ++i) apply_batch(m, adv.next(m, 20));

  for (int round = 0; round < 10; ++round) {
    const Batch b = adv.next(m, 5);
    for (const auto& eps : b.deletions) {
      const EdgeId e = m.graph().find(eps);
      ASSERT_NE(e, kNoEdge);
      EXPECT_TRUE(m.is_matched(e)) << "adversary must target matched edges";
    }
    apply_batch(m, b);
  }
}

// Shared batch-validity harness for the newer streams: every deletion must
// name a currently-live edge, insertions must be fresh, and the stream's
// own live() mirror must agree with the replayed state.
template <typename Stream>
void expect_valid_batches(Stream& s, size_t batches, size_t batch_size) {
  std::set<std::vector<Vertex>> live;
  for (size_t i = 0; i < batches; ++i) {
    const Batch b = s.next(batch_size);
    for (const auto& eps : b.deletions) {
      ASSERT_EQ(live.count(eps), 1u) << "deleted an edge that is not live";
      live.erase(eps);
    }
    for (const auto& eps : b.insertions) {
      ASSERT_EQ(live.count(eps), 0u) << "inserted a duplicate edge";
      live.insert(eps);
    }
  }
  EXPECT_EQ(live.size(), s.live().size());
}

TEST(WindowChurn, ValidBatchesAndBoundedWindow) {
  WindowChurnStream::Options opt;
  opt.n = 300;
  opt.window = 100;
  opt.churn = 0.5;
  opt.seed = 11;
  WindowChurnStream s(opt);
  expect_valid_batches(s, 80, 25);
  // The live set may only exceed the window transiently inside a batch.
  EXPECT_LE(s.live().size(), opt.window);
}

TEST(WindowChurn, ZeroChurnMatchesSlidingWindowSizes) {
  WindowChurnStream::Options opt;
  opt.n = 500;
  opt.window = 10;
  opt.churn = 0.0;
  opt.seed = 5;
  WindowChurnStream s(opt);
  const Batch first = s.next(10);  // fills the window exactly
  EXPECT_TRUE(first.deletions.empty());
  const Batch second = s.next(10);
  // With churn off every further batch evicts exactly what it inserts.
  ASSERT_EQ(second.deletions.size(), 10u);
  for (size_t i = 0; i < 10; ++i)
    EXPECT_EQ(second.deletions[i], first.insertions[i]);
}

TEST(WindowChurn, ChurnDeletesOutOfFifoOrder) {
  WindowChurnStream::Options opt;
  opt.n = 1000;
  opt.window = 200;
  opt.churn = 0.5;
  opt.seed = 13;
  WindowChurnStream s(opt);
  std::vector<std::vector<Vertex>> inserted;
  bool out_of_order = false;
  for (int i = 0; i < 40; ++i) {
    const Batch b = s.next(50);
    // A deletion that is NOT the oldest still-live edge proves the
    // random-age churn path fired.
    for (const auto& eps : b.deletions) {
      auto it = std::find(inserted.begin(), inserted.end(), eps);
      if (it != inserted.end() && it != inserted.begin()) out_of_order = true;
      if (it != inserted.end()) inserted.erase(it);
    }
    for (const auto& eps : b.insertions) inserted.push_back(eps);
  }
  EXPECT_TRUE(out_of_order);
}

TEST(PowerLaw, GrowsToTargetWithValidBatches) {
  PowerLawStream::Options opt;
  opt.n = 400;
  opt.target_edges = 300;
  opt.s = 1.1;
  opt.seed = 21;
  PowerLawStream s(opt);
  expect_valid_batches(s, 60, 30);
  EXPECT_NEAR(static_cast<double>(s.live().size()), 300.0, 60.0);
}

TEST(PowerLaw, HubEndpointsDominate) {
  PowerLawStream::Options opt;
  opt.n = 2000;
  opt.target_edges = 4000;
  opt.s = 1.2;
  opt.seed = 22;
  PowerLawStream s(opt);
  std::map<Vertex, size_t> degree;
  for (int i = 0; i < 40; ++i) {
    const Batch b = s.next(200);
    for (const auto& eps : b.insertions)
      for (Vertex v : eps) ++degree[v];
  }
  size_t max_deg = 0, total = 0;
  for (const auto& [v, d] : degree) {
    max_deg = std::max(max_deg, d);
    total += d;
  }
  // A Zipf(1.2) hub endpoint owns far more than the uniform share.
  EXPECT_GT(max_deg * degree.size(), 20 * total);
}

TEST(Oscillation, BuildsThenOscillatesSameEdges) {
  OscillationStream::Options opt;
  opt.n = 500;
  opt.core_edges = 40;
  opt.background_edges = 100;
  opt.seed = 31;
  OscillationStream s(opt);

  // Build phase: exactly background + core insertions, no deletions.
  std::set<std::vector<Vertex>> live;
  size_t built = 0;
  while (built < 140) {
    const Batch b = s.next(64);
    EXPECT_TRUE(b.deletions.empty());
    built += b.insertions.size();
    for (const auto& eps : b.insertions) live.insert(eps);
  }
  EXPECT_EQ(built, 140u);
  EXPECT_EQ(live.size(), 140u);

  // First oscillation half-cycle deletes a live stretch of the core;
  // the next reinserts exactly the same edges.
  const Batch del = s.next(64);
  EXPECT_TRUE(del.insertions.empty());
  ASSERT_EQ(del.deletions.size(), 40u);
  for (const auto& eps : del.deletions) EXPECT_EQ(live.count(eps), 1u);
  const Batch re = s.next(64);
  EXPECT_TRUE(re.deletions.empty());
  ASSERT_EQ(re.insertions.size(), 40u);
  EXPECT_EQ(std::set<std::vector<Vertex>>(re.insertions.begin(),
                                          re.insertions.end()),
            std::set<std::vector<Vertex>>(del.deletions.begin(),
                                          del.deletions.end()));
}

TEST(Oscillation, DrivesMatcherWithInvariantsOn) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.initial_capacity = 1 << 12;
  cfg.check_invariants = true;
  PdmmAdapter m(cfg, pool);

  OscillationStream::Options opt;
  opt.n = 200;
  opt.core_edges = 32;
  opt.background_edges = 64;
  opt.seed = 32;
  OscillationStream s(opt);
  for (int i = 0; i < 24; ++i) apply_batch(m, s.next(16));
  EXPECT_GT(m.matching_size(), 0u);
}

TEST(WindowChurn, DrivesMatcherWithInvariantsOn) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.initial_capacity = 1 << 12;
  cfg.check_invariants = true;
  PdmmAdapter m(cfg, pool);

  WindowChurnStream::Options opt;
  opt.n = 200;
  opt.window = 80;
  opt.churn = 0.4;
  opt.seed = 33;
  WindowChurnStream s(opt);
  for (int i = 0; i < 30; ++i) apply_batch(m, s.next(20));
  EXPECT_GT(m.matching_size(), 0u);
}

TEST(ApplyBatch, ResolvesAndApplies) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.initial_capacity = 256;
  PdmmAdapter m(cfg, pool);
  Batch b;
  b.insertions = {{0, 1}, {2, 3}};
  auto ids = apply_batch(m, b);
  ASSERT_EQ(ids.size(), 2u);
  Batch d;
  d.deletions = {{1, 0}};  // unordered endpoints resolve canonically
  apply_batch(m, d);
  EXPECT_EQ(m.graph().num_edges(), 1u);
}

// ---- shape checks: the largest servable shape passes, the next fails ----
//
// Six vertices hold C(6, 2) = 15 distinct rank-2 edges, so every boundary
// below is the shape whose peak live count is exactly 15.

TEST(ShapeCheck, DistinctEdgesIsTheSaturatedBinomial) {
  EXPECT_EQ(distinct_edges(6, 2), 15u);
  EXPECT_EQ(distinct_edges(6, 0), 1u);
  EXPECT_EQ(distinct_edges(3, 3), 1u);
  EXPECT_EQ(distinct_edges(3, 4), 0u);
  EXPECT_EQ(distinct_edges(64, 32), 1832624140942590534u);
  EXPECT_EQ(distinct_edges(uint64_t{1} << 32, 2),
            (uint64_t{1} << 31) * ((uint64_t{1} << 32) - 1));
  EXPECT_EQ(distinct_edges(100, 50), UINT64_MAX);
  EXPECT_EQ(distinct_edges(UINT32_MAX, 40), UINT64_MAX);
}

TEST(ShapeCheck, ChurnPeaksAtTheBandTopOrTheBatch) {
  ChurnStream::Options opt;
  opt.n = 6;
  opt.target_edges = 14;  // band [13, 15]
  EXPECT_FALSE(ChurnStream::check(opt, 15));
  opt.target_edges = 15;  // band [14, 16]
  const ShapeError e = ChurnStream::check(opt, 1);
  EXPECT_EQ(e.field, "n");
  EXPECT_NE(e.why.find("16 edges live"), std::string::npos) << e.why;
  // Below ten the band is one point, and an insertion lands on top of it.
  opt.target_edges = 5;
  opt.n = 4;  // C(4, 2) = 6
  EXPECT_FALSE(ChurnStream::check(opt, 6));
  EXPECT_TRUE(ChurnStream::check(opt, 7));
  opt.target_edges = 6;
  EXPECT_TRUE(ChurnStream::check(opt, 1));
  // A batch that outgrows the band leaves all of its edges live.
  opt.n = 6;
  opt.target_edges = 0;
  EXPECT_FALSE(ChurnStream::check(opt, 15));
  EXPECT_TRUE(ChurnStream::check(opt, 16));
  // No more edges are live than the stream has emitted.
  opt.target_edges = 1 << 30;
  EXPECT_FALSE(ChurnStream::check(opt, 4, 15));
  EXPECT_TRUE(ChurnStream::check(opt, 4, 16));
  // PowerLawStream walks the same band.
  PowerLawStream::Options pl;
  pl.n = 6;
  pl.target_edges = 14;
  EXPECT_FALSE(PowerLawStream::check(pl, 15));
  pl.target_edges = 15;
  EXPECT_TRUE(PowerLawStream::check(pl, 1));
}

TEST(ShapeCheck, TooFewVerticesOrRankZeroIsRefused) {
  ChurnStream::Options opt;
  opt.n = 2;
  opt.target_edges = 0;
  EXPECT_FALSE(ChurnStream::check(opt, 1));
  opt.n = 1;
  EXPECT_EQ(ChurnStream::check(opt, 1).field, "n");
  opt.n = 0;
  EXPECT_EQ(ChurnStream::check(opt, 0, 0).field, "n");
  opt.n = 4;
  opt.rank = 0;
  EXPECT_EQ(ChurnStream::check(opt, 1).field, "rank");
}

TEST(ShapeCheck, WindowsPeakOneAboveWindowOrBatch) {
  SlidingWindowStream::Options sw;
  sw.n = 6;
  sw.window = 14;
  EXPECT_FALSE(SlidingWindowStream::check(sw, 14));
  EXPECT_TRUE(SlidingWindowStream::check(sw, 15));
  sw.window = 15;
  EXPECT_TRUE(SlidingWindowStream::check(sw, 1));
  sw.window = 0;  // an empty window is a valid sliding window
  EXPECT_FALSE(SlidingWindowStream::check(sw, 14));

  WindowChurnStream::Options wc;
  wc.n = 6;
  wc.window = 14;
  EXPECT_FALSE(WindowChurnStream::check(wc, 14));
  EXPECT_TRUE(WindowChurnStream::check(wc, 15));
  wc.window = 1;
  EXPECT_FALSE(WindowChurnStream::check(wc, 1));
  wc.window = 0;
  EXPECT_EQ(WindowChurnStream::check(wc, 1).field, "window");
}

TEST(ShapeCheck, OscillationDrawsEveryEdgeUpFront) {
  OscillationStream::Options opt;
  opt.n = 6;
  opt.background_edges = 10;
  opt.core_edges = 5;
  EXPECT_FALSE(OscillationStream::check(opt));
  opt.background_edges = 11;
  EXPECT_EQ(OscillationStream::check(opt).field, "n");
  opt.background_edges = 0;
  opt.core_edges = 1;
  EXPECT_FALSE(OscillationStream::check(opt));
  opt.core_edges = 0;
  EXPECT_EQ(OscillationStream::check(opt).field, "core_edges");
}

TEST(ShapeCheck, AdversaryGrowsOnlyWhileTheMatchingIsSmall) {
  AdversarialMatchedDeleter::Options opt;
  opt.n = 6;
  // Growth stops once 2 matched edges can be deleted per batch: at most
  // 2 * 1 * C(5, 1) + 2 = 12 live edges.
  EXPECT_FALSE(AdversarialMatchedDeleter::check(opt, 2));
  // Three per batch need 23, more than the 15 there are, unless the run
  // inserts no more than 15 in all.
  EXPECT_TRUE(AdversarialMatchedDeleter::check(opt, 3));
  EXPECT_FALSE(AdversarialMatchedDeleter::check(opt, 3, 15));
  EXPECT_TRUE(AdversarialMatchedDeleter::check(opt, 3, 16));
}

// The boundary shapes run: each stream fills all 15 edges of its vertex
// set (or comes within the band of it) and keeps going.
TEST(ShapeCheck, BoundaryShapesAreServed) {
  ChurnStream::Options co;
  co.n = 6;
  co.target_edges = 14;
  co.seed = 5;
  ASSERT_FALSE(ChurnStream::check(co, 8));
  ChurnStream churn(co);
  for (int i = 0; i < 200; ++i) churn.next(8);
  EXPECT_LE(churn.live().size(), 15u);

  WindowChurnStream::Options wo;
  wo.n = 6;
  wo.window = 14;
  wo.churn = 0.5;
  wo.seed = 6;
  ASSERT_FALSE(WindowChurnStream::check(wo, 8));
  WindowChurnStream window(wo);
  for (int i = 0; i < 200; ++i) window.next(8);
  EXPECT_EQ(window.live().size(), 14u);

  OscillationStream::Options oo;
  oo.n = 6;
  oo.background_edges = 10;
  oo.core_edges = 5;
  oo.seed = 7;
  ASSERT_FALSE(OscillationStream::check(oo));
  OscillationStream osc(oo);
  for (int i = 0; i < 20; ++i) osc.next(4);
  EXPECT_LE(osc.live().size(), 15u);
}

// Past the boundary a stream stops with a message instead of drawing
// forever for an edge that does not exist.
TEST(ShapeCheckDeath, FullEdgeSpaceAssertsInsteadOfSpinning) {
  testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Xoshiro256 rng(1);
        LiveSet live(2);
        for (int i = 0; i < 4; ++i) live.insert_random(rng, 3, 2);
      },
      "every distinct edge is live");
  ChurnStream::Options opt;
  opt.n = 1;
  EXPECT_DEATH(ChurnStream{opt}, "a rank-2 edge needs 2 distinct vertices");
}

}  // namespace
}  // namespace pdmm
