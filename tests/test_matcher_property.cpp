// Property-based / fuzz tests of DynamicMatcher.
//
// The MatchingChecker oracle runs after every batch (Config::check_invariants)
// and asserts the full §3.2 invariant set plus matching validity and
// maximality. These suites drive long random update streams through the
// matcher across a parameter sweep of graph size, rank, batch size, seeds,
// eager/lazy settling and thread counts.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>

#include "core/checker.h"
#include "core/matcher.h"
#include "param_name.h"
#include "workload/generators.h"

namespace pdmm {
namespace {

// gtest prints this struct's raw bytes in each test name, so it must have
// no padding: a padding byte holds leftover stack data that varies the
// names from run to run.
struct FuzzParams {
  Vertex n;
  uint32_t rank;
  size_t target_edges;
  size_t batch;
  uint64_t seed;
  uint32_t eager;  // bool
  unsigned threads;
};
static_assert(std::has_unique_object_representations_v<FuzzParams>,
              "padding bytes would make the test names nondeterministic");

std::string param_name(const testing::TestParamInfo<FuzzParams>& info) {
  const FuzzParams& p = info.param;
  return testing_util::name_cat("n", p.n, "_r", p.rank, "_m", p.target_edges,
                                "_b", p.batch, "_s", p.seed,
                                p.eager ? "_eager" : "_lazy", "_t", p.threads);
}

class MatcherFuzz : public testing::TestWithParam<FuzzParams> {};

TEST_P(MatcherFuzz, ChurnStreamKeepsAllInvariants) {
  const FuzzParams p = GetParam();
  ThreadPool pool(p.threads);
  Config cfg;
  cfg.max_rank = p.rank;
  cfg.seed = p.seed * 7919 + 13;
  cfg.check_invariants = true;
  cfg.settle_after_insertions = p.eager != 0;
  cfg.initial_capacity = 256;
  DynamicMatcher m(cfg, pool);

  ChurnStream::Options so;
  so.n = p.n;
  so.rank = p.rank;
  so.target_edges = p.target_edges;
  so.seed = p.seed;
  ChurnStream stream(so);

  size_t total_updates = 0;
  while (total_updates < 24 * p.target_edges / 10) {
    const Batch b = stream.next(p.batch);
    total_updates += b.deletions.size() + b.insertions.size();
    std::vector<EdgeId> dels;
    for (const auto& eps : b.deletions) {
      const EdgeId e = m.find_edge(eps);
      ASSERT_NE(e, kNoEdge);
      dels.push_back(e);
    }
    m.update(dels, b.insertions);
    ASSERT_EQ(m.graph().num_edges(), stream.live().size());
  }
  // The whp settle fallback should never fire on these sizes.
  EXPECT_EQ(m.stats().settle_fallbacks, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    SmallGraphs, MatcherFuzz,
    testing::Values(
        FuzzParams{16, 2, 24, 4, 1, true, 1},
        FuzzParams{16, 2, 24, 4, 2, false, 1},
        FuzzParams{16, 2, 24, 1, 3, true, 1},
        FuzzParams{32, 2, 64, 8, 4, true, 1},
        FuzzParams{32, 2, 64, 8, 5, false, 1},
        FuzzParams{8, 2, 12, 2, 6, true, 1},
        FuzzParams{8, 2, 12, 2, 7, false, 1},
        FuzzParams{48, 2, 96, 16, 8, true, 1},
        FuzzParams{16, 3, 32, 4, 9, true, 1},
        FuzzParams{16, 3, 32, 4, 10, false, 1},
        FuzzParams{32, 4, 48, 8, 11, true, 1},
        FuzzParams{24, 5, 40, 6, 12, true, 1},
        FuzzParams{24, 5, 40, 6, 13, false, 1},
        FuzzParams{12, 1, 10, 3, 14, true, 1},
        FuzzParams{64, 2, 160, 32, 15, true, 1},
        FuzzParams{64, 3, 128, 32, 16, false, 1}),
    param_name);

INSTANTIATE_TEST_SUITE_P(
    MediumGraphsAndThreads, MatcherFuzz,
    testing::Values(
        FuzzParams{256, 2, 512, 64, 21, true, 1},
        FuzzParams{256, 2, 512, 64, 22, true, 4},
        FuzzParams{256, 2, 512, 1, 23, true, 1},
        FuzzParams{512, 2, 1024, 128, 24, false, 2},
        FuzzParams{256, 3, 512, 64, 25, true, 4},
        FuzzParams{512, 4, 768, 96, 26, false, 1},
        FuzzParams{1024, 2, 2048, 256, 27, true, 2},
        FuzzParams{128, 2, 1024, 64, 28, true, 1}),  // dense: m = 8n
    param_name);

// Determinism: the same seed and stream must give bit-identical matchings
// regardless of thread count.
TEST(MatcherDeterminism, ThreadCountInvariant) {
  auto run = [](unsigned threads) {
    ThreadPool pool(threads);
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = 99;
    cfg.initial_capacity = 4096;
    DynamicMatcher m(cfg, pool);
    ChurnStream::Options so;
    so.n = 200;
    so.target_edges = 400;
    so.seed = 5;
    ChurnStream stream(so);
    for (int i = 0; i < 40; ++i) {
      const Batch b = stream.next(32);
      std::vector<EdgeId> dels;
      for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
      m.update(dels, b.insertions);
    }
    return m.matching();
  };
  const auto m1 = run(1);
  const auto m2 = run(3);
  const auto m3 = run(8);
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(m1, m3);
}

// Different matcher seeds may give different matchings but always valid
// maximal ones (the per-batch oracle asserts that).
TEST(MatcherSeeds, AllSeedsMaximal) {
  for (uint64_t seed = 0; seed < 12; ++seed) {
    ThreadPool pool(1);
    Config cfg;
    cfg.max_rank = 2;
    cfg.seed = seed;
    cfg.check_invariants = true;
    cfg.initial_capacity = 4096;
    DynamicMatcher m(cfg, pool);
    ChurnStream::Options so;
    so.n = 100;
    so.target_edges = 300;
    so.seed = 1234;  // identical adversary for every matcher seed
    ChurnStream stream(so);
    for (int i = 0; i < 20; ++i) {
      const Batch b = stream.next(40);
      std::vector<EdgeId> dels;
      for (const auto& eps : b.deletions) dels.push_back(m.find_edge(eps));
      m.update(dels, b.insertions);
    }
    EXPECT_GT(m.matching_size(), 0u);
  }
}

// Deleting only matched edges (adaptive adversary) must still preserve all
// invariants — only the amortized work bound is forfeited, not correctness.
TEST(MatcherAdaptive, MatchedTargetingDeleterStaysCorrect) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 3;
  cfg.check_invariants = true;
  cfg.initial_capacity = 2048;
  DynamicMatcher m(cfg, pool);

  std::vector<std::vector<Vertex>> ins;
  Xoshiro256 rng(42);
  HyperedgeRegistry dedup(2);
  for (int i = 0; i < 300; ++i) {
    Vertex a = static_cast<Vertex>(rng.below(80));
    Vertex b = static_cast<Vertex>(rng.below(80));
    if (a == b) continue;
    const std::vector<Vertex> eps{a, b};
    if (dedup.insert(eps) == kNoEdge) continue;
    ins.push_back(eps);
  }
  m.insert_batch(ins);

  for (int round = 0; round < 30; ++round) {
    std::vector<EdgeId> matched = m.matching();
    if (matched.empty()) break;
    matched.resize(std::min<size_t>(matched.size(), 10));
    m.delete_batch(matched);
  }
  SUCCEED();  // per-batch oracle did the real work
}

// Stress the temporarily-deleted machinery: a hub owning many edges rises
// and temp-deletes spokes into D; churn on its matched edge exercises
// dissolution and reinsertion, then D members are deleted directly.
TEST(MatcherTempDeleted, HubChurn) {
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 17;
  cfg.check_invariants = true;
  cfg.initial_capacity = 8192;
  DynamicMatcher m(cfg, pool);

  std::vector<std::vector<Vertex>> spokes;
  for (Vertex i = 1; i <= 200; ++i) spokes.push_back({0, i});
  m.insert_batch(spokes);
  EXPECT_GT(m.stats().temp_deleted, 0u)
      << "hub insertion should trigger rising + temp deletions";

  for (int round = 0; round < 25; ++round) {
    const EdgeId me = m.matched_edge_of(0);
    if (me == kNoEdge) break;
    m.delete_batch(std::vector<EdgeId>{me});
    EXPECT_EQ(m.matched_edge_of(0) == kNoEdge, m.vertex_level(0) == -1);
  }
  std::vector<EdgeId> temp;
  for (EdgeId e : m.graph().all_edges())
    if (m.is_temp_deleted(e)) temp.push_back(e);
  if (!temp.empty()) {
    temp.resize(std::min<size_t>(temp.size(), 20));
    m.delete_batch(temp);
  }
}

// Batches mixing every update flavour at once: unmatched deletions, matched
// deletions, temp-deleted deletions and insertions.
TEST(MatcherMixed, AllUpdateKindsInOneBatch) {
  ThreadPool pool(2);
  Config cfg;
  cfg.max_rank = 2;
  cfg.seed = 23;
  cfg.check_invariants = true;
  cfg.initial_capacity = 8192;
  DynamicMatcher m(cfg, pool);
  Xoshiro256 rng(7);

  // Hub-heavy graph to guarantee temp-deleted edges exist.
  std::vector<std::vector<Vertex>> init;
  for (Vertex i = 1; i <= 120; ++i) init.push_back({0, i});
  for (Vertex i = 1; i <= 100; ++i)
    init.push_back({i, static_cast<Vertex>(i + 200)});
  m.insert_batch(init);

  for (int round = 0; round < 15; ++round) {
    std::vector<EdgeId> dels;
    EdgeId any_matched = kNoEdge, any_unmatched = kNoEdge, any_temp = kNoEdge;
    for (EdgeId e : m.graph().all_edges()) {
      if (m.is_matched(e) && any_matched == kNoEdge) any_matched = e;
      else if (m.is_temp_deleted(e) && any_temp == kNoEdge) any_temp = e;
      else if (!m.is_matched(e) && !m.is_temp_deleted(e) &&
               any_unmatched == kNoEdge)
        any_unmatched = e;
    }
    for (EdgeId e : {any_matched, any_unmatched, any_temp})
      if (e != kNoEdge) dels.push_back(e);
    std::vector<std::vector<Vertex>> ins;
    for (int i = 0; i < 3; ++i) {
      Vertex a = static_cast<Vertex>(rng.below(400));
      Vertex b = static_cast<Vertex>(400 + rng.below(400));
      ins.push_back({a, b});
    }
    m.update(dels, ins);
  }
  SUCCEED();
}

}  // namespace
}  // namespace pdmm
