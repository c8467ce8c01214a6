// Matching-quality tests: maximal matchings are within factor r of the
// maximum (paper §2), and the matched endpoints form a vertex cover of
// size <= r * OPT. Verified against the exact branch-and-bound solver on
// small random instances, across ranks and densities.
#include <gtest/gtest.h>

#include <bit>
#include <type_traits>

#include "core/matcher.h"
#include "param_name.h"
#include "static_mm/exact.h"
#include "static_mm/luby.h"
#include "util/rng.h"

namespace pdmm {
namespace {

// gtest prints this struct's raw bytes in each test name, so every field
// is eight bytes wide: a padding byte would hold leftover stack data that
// varies the names from run to run.
struct QualityParams {
  uint64_t n;
  size_t m;
  uint64_t r;
  uint64_t seed;
};
static_assert(std::has_unique_object_representations_v<QualityParams>,
              "padding bytes would make the test names nondeterministic");

class Quality : public testing::TestWithParam<QualityParams> {};

std::vector<std::vector<Vertex>> random_edges(const QualityParams& p) {
  Xoshiro256 rng(p.seed);
  HyperedgeRegistry dedup(p.r);
  std::vector<std::vector<Vertex>> out;
  while (out.size() < p.m) {
    std::vector<Vertex> eps(p.r);
    for (auto& v : eps) v = static_cast<Vertex>(rng.below(p.n));
    std::sort(eps.begin(), eps.end());
    if (std::adjacent_find(eps.begin(), eps.end()) != eps.end()) continue;
    if (dedup.insert(eps) == kNoEdge) continue;
    out.push_back(std::move(eps));
  }
  return out;
}

TEST_P(Quality, DynamicMatcherWithinRankFactorOfOptimum) {
  const auto p = GetParam();
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = p.r;
  cfg.seed = p.seed * 3 + 1;
  cfg.check_invariants = true;
  cfg.initial_capacity = 4096;
  DynamicMatcher m(cfg, pool);
  m.insert_batch(random_edges(p));

  const size_t opt =
      exact_maximum_matching_size(m.graph(), m.graph().all_edges());
  EXPECT_GE(m.matching_size() * p.r, opt)
      << "maximal matching below the 1/r bound";
  EXPECT_LE(m.matching_size(), opt) << "matching larger than the maximum?!";

  // Vertex cover: every edge has a covered endpoint; size <= r * |M| and
  // since any vertex cover needs >= opt vertices... at least it must cover.
  const auto cover = m.vertex_cover();
  std::vector<uint8_t> in_cover(m.graph().vertex_bound(), 0);
  for (Vertex v : cover) in_cover[v] = 1;
  for (EdgeId e : m.graph().all_edges()) {
    bool covered = false;
    for (Vertex v : m.graph().endpoints(e)) covered |= in_cover[v];
    EXPECT_TRUE(covered) << "vertex cover misses edge " << e;
  }
  EXPECT_EQ(cover.size(), p.r * m.matching_size());
}

TEST_P(Quality, QualitySurvivesChurn) {
  const auto p = GetParam();
  ThreadPool pool(1);
  Config cfg;
  cfg.max_rank = p.r;
  cfg.seed = p.seed * 7 + 5;
  cfg.check_invariants = true;
  cfg.initial_capacity = 8192;
  DynamicMatcher m(cfg, pool);
  auto edges = random_edges(p);
  m.insert_batch(edges);

  Xoshiro256 rng(p.seed);
  for (int round = 0; round < 6; ++round) {
    // Delete a random third of the edges, reinsert fresh ones.
    std::vector<EdgeId> dels;
    for (EdgeId e : m.graph().all_edges())
      if (rng.uniform() < 0.33) dels.push_back(e);
    QualityParams pp = p;
    pp.m = dels.size();
    pp.seed = p.seed + 100 + static_cast<uint64_t>(round);
    m.update(dels, random_edges(pp));

    const size_t opt =
        exact_maximum_matching_size(m.graph(), m.graph().all_edges());
    EXPECT_GE(m.matching_size() * p.r, opt);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallInstances, Quality,
    testing::Values(QualityParams{12, 20, 2, 1}, QualityParams{12, 20, 2, 2},
                    QualityParams{20, 40, 2, 3}, QualityParams{20, 40, 2, 4},
                    QualityParams{16, 30, 3, 5}, QualityParams{16, 30, 3, 6},
                    QualityParams{24, 36, 4, 7}, QualityParams{30, 45, 5, 8},
                    QualityParams{40, 60, 2, 9}, QualityParams{10, 30, 2, 10}),
    [](const auto& info) {
      const auto& p = info.param;
      return testing_util::name_cat("n", p.n, "_m", p.m, "_r", p.r, "_s",
                                    p.seed);
    });

TEST(ExactSolver, KnownValues) {
  HyperedgeRegistry reg(2);
  // Path of 4 edges: maximum matching = 2.
  reg.insert(std::vector<Vertex>{0, 1});
  reg.insert(std::vector<Vertex>{1, 2});
  reg.insert(std::vector<Vertex>{2, 3});
  reg.insert(std::vector<Vertex>{3, 4});
  EXPECT_EQ(exact_maximum_matching_size(reg, reg.all_edges()), 2u);
}

TEST(ExactSolver, TriangleIsOne) {
  HyperedgeRegistry reg(2);
  reg.insert(std::vector<Vertex>{0, 1});
  reg.insert(std::vector<Vertex>{1, 2});
  reg.insert(std::vector<Vertex>{0, 2});
  EXPECT_EQ(exact_maximum_matching_size(reg, reg.all_edges()), 1u);
}

TEST(ExactSolver, DisjointEdges) {
  HyperedgeRegistry reg(3);
  for (Vertex i = 0; i < 8; ++i)
    reg.insert(std::vector<Vertex>{static_cast<Vertex>(3 * i),
                                   static_cast<Vertex>(3 * i + 1),
                                   static_cast<Vertex>(3 * i + 2)});
  EXPECT_EQ(exact_maximum_matching_size(reg, reg.all_edges()), 8u);
}

// The solver prunes a branch only when no extension can beat the best
// found. Exhaustive search over every edge subset of small random
// instances (ranks 1-4, sparse vertex ids) confirms the bound never cuts
// an optimum.
TEST(ExactSolver, MatchesExhaustiveSubsetSearch) {
  Xoshiro256 rng(2024);
  for (int instance = 0; instance < 300; ++instance) {
    const uint64_t n = 4 + rng.below(9);
    const size_t m = 1 + rng.below(14);
    HyperedgeRegistry reg(4);
    std::vector<uint32_t> masks;  // each edge's vertex set, as bits
    for (int tries = 0; masks.size() < m && tries < 200; ++tries) {
      const uint64_t r = 1 + rng.below(4);
      std::vector<Vertex> eps;
      uint32_t mask = 0;
      while (eps.size() < r) {
        const auto v = static_cast<uint32_t>(rng.below(n));
        if ((mask >> v) & 1) continue;
        mask |= 1u << v;
        eps.push_back(v * 7919 + 3);
      }
      if (reg.insert(eps) != kNoEdge) masks.push_back(mask);
    }
    size_t best = 0;
    for (uint32_t subset = 0; subset < (1u << masks.size()); ++subset) {
      uint32_t covered = 0;
      bool disjoint = true;
      for (size_t i = 0; i < masks.size() && disjoint; ++i) {
        if (!((subset >> i) & 1)) continue;
        disjoint = (covered & masks[i]) == 0;
        covered |= masks[i];
      }
      if (disjoint) {
        best = std::max<size_t>(best, static_cast<size_t>(
                                          std::popcount(subset)));
      }
    }
    EXPECT_EQ(exact_maximum_matching_size(reg, reg.all_edges()), best)
        << "instance " << instance;
  }
}

TEST(ExactSolver, GreedyCanBeHalfOfOptimal) {
  // Path a-b-c-d with the middle edge greedily chosen first: greedy = 1,
  // optimal = 2. The exact solver must find 2.
  HyperedgeRegistry reg(2);
  reg.insert(std::vector<Vertex>{1, 2});  // middle first
  reg.insert(std::vector<Vertex>{0, 1});
  reg.insert(std::vector<Vertex>{2, 3});
  EXPECT_EQ(exact_maximum_matching_size(reg, reg.all_edges()), 2u);
  const auto greedy = greedy_maximal_matching(reg, reg.all_edges());
  EXPECT_EQ(greedy.size(), 1u);
}

}  // namespace
}  // namespace pdmm
