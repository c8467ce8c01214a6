// Tests for the static parallel maximal matching (Theorem 2.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <type_traits>

#include "core/checker.h"
#include "param_name.h"
#include "parallel/thread_pool.h"
#include "static_mm/luby.h"
#include "util/bits.h"
#include "util/rng.h"

namespace pdmm {
namespace {

// Builds a random hypergraph; returns the registry with all edges inserted.
std::unique_ptr<HyperedgeRegistry> random_graph(Vertex n, size_t m,
                                                uint32_t r, uint64_t seed) {
  auto reg = std::make_unique<HyperedgeRegistry>(r);
  Xoshiro256 rng(seed);
  while (reg->num_edges() < m) {
    std::vector<Vertex> eps(r);
    for (auto& v : eps) v = static_cast<Vertex>(rng.below(n));
    std::sort(eps.begin(), eps.end());
    if (std::adjacent_find(eps.begin(), eps.end()) != eps.end()) continue;
    reg->insert(eps);
  }
  return reg;
}

void verify_mm(const HyperedgeRegistry& reg,
               const std::vector<EdgeId>& matched) {
  MatchingChecker::check_maximal_matching(reg, matched);
}

// gtest prints this struct's raw bytes in each test name, so every field
// is eight bytes wide: a padding byte would hold leftover stack data that
// varies the names from run to run.
struct MMParams {
  uint64_t n;
  size_t m;
  uint64_t r;
  uint64_t seed;
  uint64_t threads;
};
static_assert(std::has_unique_object_representations_v<MMParams>,
              "padding bytes would make the test names nondeterministic");

class StaticMM : public testing::TestWithParam<MMParams> {};

TEST_P(StaticMM, ProducesMaximalMatching) {
  const auto p = GetParam();
  ThreadPool pool(p.threads);
  auto reg = random_graph(p.n, p.m, p.r, p.seed);
  const auto all = reg->all_edges();
  CostCounters cost;
  const StaticMMResult res =
      static_maximal_matching(pool, *reg, all, p.seed * 31, &cost);
  verify_mm(*reg, res.matched);
  EXPECT_GT(res.rounds, 0u);
  EXPECT_GT(cost.work, 0u);
  // Theorem 2.2: O(log M) rounds whp. Generous constant for the assert.
  EXPECT_LE(res.rounds, 10 + 4 * log2_ceil(p.m + 2));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StaticMM,
    testing::Values(MMParams{50, 100, 2, 1, 1}, MMParams{50, 100, 2, 2, 4},
                    MMParams{500, 2000, 2, 3, 1},
                    MMParams{500, 2000, 2, 4, 8},
                    MMParams{200, 1000, 3, 5, 2},
                    MMParams{300, 1500, 5, 6, 1},
                    MMParams{2000, 20000, 2, 7, 4},
                    MMParams{100, 50, 4, 8, 1},
                    MMParams{5000, 50000, 3, 9, 4}),
    [](const auto& info) {
      const auto& p = info.param;
      return testing_util::name_cat("n", p.n, "_m", p.m, "_r", p.r, "_s",
                                    p.seed, "_t", p.threads);
    });

TEST(StaticMMBasic, EmptyInput) {
  ThreadPool pool(1);
  HyperedgeRegistry reg(2);
  const auto res = static_maximal_matching(pool, reg, {}, 1);
  EXPECT_TRUE(res.matched.empty());
  EXPECT_EQ(res.rounds, 0u);
}

TEST(StaticMMBasic, SingleEdge) {
  ThreadPool pool(1);
  HyperedgeRegistry reg(2);
  const EdgeId e = reg.insert(std::vector<Vertex>{0, 1});
  const auto res =
      static_maximal_matching(pool, reg, std::vector<EdgeId>{e}, 1);
  ASSERT_EQ(res.matched.size(), 1u);
  EXPECT_EQ(res.matched[0], e);
}

TEST(StaticMMBasic, StarMatchesExactlyOne) {
  ThreadPool pool(2);
  HyperedgeRegistry reg(2);
  std::vector<EdgeId> ids;
  for (Vertex i = 1; i <= 100; ++i)
    ids.push_back(reg.insert(std::vector<Vertex>{0, i}));
  const auto res = static_maximal_matching(pool, reg, ids, 3);
  EXPECT_EQ(res.matched.size(), 1u);
}

TEST(StaticMMBasic, PerfectMatchingOnDisjointEdges) {
  ThreadPool pool(2);
  HyperedgeRegistry reg(2);
  std::vector<EdgeId> ids;
  for (Vertex i = 0; i < 1000; ++i)
    ids.push_back(
        reg.insert(std::vector<Vertex>{2 * i, 2 * i + 1}));
  const auto res = static_maximal_matching(pool, reg, ids, 4);
  EXPECT_EQ(res.matched.size(), 1000u);
  EXPECT_EQ(res.rounds, 1u) << "disjoint edges all win in round one";
}

TEST(StaticMMBasic, DeterministicPerSeed) {
  ThreadPool pool(1);
  auto reg = random_graph(100, 400, 2, 77);
  const auto all = reg->all_edges();
  const auto r1 = static_maximal_matching(pool, *reg, all, 5);
  ThreadPool pool8(8);
  const auto r2 = static_maximal_matching(pool8, *reg, all, 5);
  EXPECT_EQ(r1.matched, r2.matched) << "same seed => same matching";
  const auto r3 = static_maximal_matching(pool, *reg, all, 6);
  verify_mm(*reg, r3.matched);
}

TEST(StaticMMBasic, MatchesOnlyWithinCandidates) {
  // Non-candidate edges are invisible to the MM.
  ThreadPool pool(1);
  HyperedgeRegistry reg(2);
  const EdgeId a = reg.insert(std::vector<Vertex>{0, 1});
  reg.insert(std::vector<Vertex>{1, 2});  // not a candidate
  const auto res =
      static_maximal_matching(pool, reg, std::vector<EdgeId>{a}, 1);
  ASSERT_EQ(res.matched.size(), 1u);
  EXPECT_EQ(res.matched[0], a);
}

// One scratch reused across many calls — mixed candidate subsets of two
// registries of different rank and vertex bound, sizes from empty to past
// the pool's serial grain — must behave as a fresh one every time, and
// leave both vertex lanes all zero after every call.
class StaticMMScratchReuse : public testing::TestWithParam<unsigned> {};

TEST_P(StaticMMScratchReuse, MatchesFreshScratchAndLeavesLanesZero) {
  ThreadPool pool(GetParam(), /*allow_oversubscribe=*/true);
  const auto small = random_graph(3000, 12000, 2, 21);
  const auto wide = random_graph(6000, 9000, 3, 22);
  const size_t sizes[] = {0, 1, 17, 300, 2500, 5000, 9000};
  StaticMMScratch scratch;
  StaticMMResult out;
  Xoshiro256 rng(23 + GetParam());
  for (uint64_t call = 0; call < 60; ++call) {
    const HyperedgeRegistry& reg = call % 3 == 2 ? *wide : *small;
    std::vector<EdgeId> cands = reg.all_edges();
    for (size_t i = cands.size(); i > 1; --i)
      std::swap(cands[i - 1], cands[rng.below(i)]);
    cands.resize(std::min(cands.size(), sizes[call % 7]));
    const uint64_t seed = 1000 + call;

    static_maximal_matching(pool, reg, cands, seed, scratch, out);
    const StaticMMResult fresh =
        static_maximal_matching(pool, reg, cands, seed);
    EXPECT_EQ(out.matched, fresh.matched) << "call " << call;
    EXPECT_EQ(out.rounds, fresh.rounds) << "call " << call;
    // The greedy oracle, fed the matching first: a valid matching is taken
    // whole, and a maximal one leaves no other candidate free to add.
    std::vector<EdgeId> oracle_in = out.matched;
    oracle_in.insert(oracle_in.end(), cands.begin(), cands.end());
    EXPECT_EQ(greedy_maximal_matching(reg, oracle_in), out.matched)
        << "call " << call;
    ASSERT_TRUE(std::all_of(scratch.vmax.begin(), scratch.vmax.end(),
                            [](uint64_t x) { return x == 0; }))
        << "call " << call;
    ASSERT_TRUE(std::all_of(scratch.vmatched.begin(), scratch.vmatched.end(),
                            [](uint8_t x) { return x == 0; }))
        << "call " << call;
  }
  EXPECT_GE(scratch.vmax.size(), wide->vertex_bound());
}

INSTANTIATE_TEST_SUITE_P(Threads, StaticMMScratchReuse,
                         testing::Values(1u, 2u, 4u, 8u),
                         [](const auto& info) {
                           return testing_util::name_cat("t", info.param);
                         });

TEST(GreedyMM, AgreesOnValidity) {
  auto reg = random_graph(300, 1200, 3, 9);
  const auto all = reg->all_edges();
  const auto greedy = greedy_maximal_matching(*reg, all);
  verify_mm(*reg, greedy);
}

TEST(LubyVsGreedy, ComparableSizes) {
  // Maximal matchings can differ in size by at most a factor r against the
  // maximum; Luby and greedy should land in the same ballpark.
  ThreadPool pool(4);
  auto reg = random_graph(1000, 5000, 2, 10);
  const auto all = reg->all_edges();
  const auto luby = static_maximal_matching(pool, *reg, all, 11).matched;
  const auto greedy = greedy_maximal_matching(*reg, all);
  EXPECT_GT(luby.size(), greedy.size() / 3);
  EXPECT_GT(greedy.size(), luby.size() / 3);
}

}  // namespace
}  // namespace pdmm
