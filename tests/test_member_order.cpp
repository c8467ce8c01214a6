// Container member order is not state.
//
// O(v), A(v, l), D(e) and S_l are the paper's leveling sets (§3.2), and
// every decision the matcher makes reads them as sets: Luby's priorities
// and the settle's marks and h draws hash edge ids, random_settle_single
// sorts its candidates, the settle fallback walks its residue in vertex-id
// order, and BatchResult's diffs come out ascending. So the v2 snapshot
// writes no member order, and load() derives the sets in ascending id
// order. This suite checks the claim directly: a matcher runs beside its
// own save -> load and beside a copy whose containers MemberOrderShuffle
// permutes (position lanes re-pointed), and after every batch all three
// must save the same bytes and report the same BatchResult.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "core/checker.h"
#include "core/matcher.h"
#include "param_name.h"
#include "util/rng.h"
#include "workload/generators.h"

namespace pdmm {

// The test-only friend of DynamicMatcher (core/matcher.h): permutes the
// member order of every incidence array adj(v) (which holds O(v) and the
// A(v, l)), of every D(e) and of every S_l, and re-points the position
// lanes so the state stays valid.
struct MemberOrderShuffle {
  static void run(DynamicMatcher& m, uint64_t seed) {
    Xoshiro256 rng(seed);
    const auto shuffle = [&rng](auto& items) {
      for (size_t i = items.size(); i > 1; --i) {
        std::swap(items[i - 1], items[rng.below(i)]);
      }
    };
    for (Vertex v = 0; v < m.verts_.size(); ++v) {
      auto& adj = m.verts_[v].adj;
      shuffle(adj);
      for (uint32_t i = 0; i < adj.size(); ++i) {
        const auto eps = m.reg_.endpoints(adj[i]);
        const auto j = std::find(eps.begin(), eps.end(), v) - eps.begin();
        m.eslot(adj[i], static_cast<uint32_t>(j)) = i;
      }
    }
    for (auto& d : m.edge_d_) {
      if (!d) continue;
      shuffle(*d);
      for (uint32_t i = 0; i < d->size(); ++i) m.dslot_[(*d)[i]] = i;
    }
    for (IndexedSet& s : m.s_) {
      std::vector<uint32_t> members(s.items().begin(), s.items().end());
      shuffle(members);
      s.clear();
      for (uint32_t v : members) s.insert(v);
    }
  }
};

namespace {

// gtest prints the raw bytes of a parameter, so it must have no padding.
struct OrderParams {
  uint32_t eager;    // Config::settle_after_insertions
  uint32_t repeats;  // Config::max_settle_repeats; 0: every settle falls back
  uint32_t rank;
  uint32_t zipf;     // 0: uniform endpoints, 1: Zipf 1.1
  uint32_t threads;
};
static_assert(std::has_unique_object_representations_v<OrderParams>);

std::string save_str(const DynamicMatcher& m) {
  std::stringstream buf;
  EXPECT_TRUE(m.save(buf));
  return buf.str();
}

void expect_same(const DynamicMatcher::BatchResult& want,
                 const DynamicMatcher::BatchResult& got) {
  EXPECT_EQ(got.inserted_ids, want.inserted_ids);
  EXPECT_EQ(got.newly_matched, want.newly_matched);
  EXPECT_EQ(got.newly_unmatched, want.newly_unmatched);
  EXPECT_EQ(got.work, want.work);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.rebuilt, want.rebuilt);
}

class MemberOrder : public testing::TestWithParam<OrderParams> {};

TEST_P(MemberOrder, ReloadedAndShuffledCopiesStayByteIdentical) {
  const OrderParams p = GetParam();
  ThreadPool pool(p.threads, /*allow_oversubscribe=*/true);
  Config cfg;
  cfg.max_rank = p.rank;
  cfg.seed = 300 + p.rank;
  cfg.settle_after_insertions = p.eager != 0;
  cfg.max_settle_repeats = p.repeats;
  cfg.initial_capacity = 1 << 14;
  cfg.auto_rebuild = false;
  ChurnStream::Options so;
  so.n = 512;
  so.rank = p.rank;
  so.target_edges = 2048;
  so.zipf_s = p.zipf != 0 ? 1.1 : 0.0;
  so.seed = 17 + p.zipf;
  ChurnStream stream(so);
  constexpr size_t kBatch = 96;

  DynamicMatcher a(cfg, pool);
  for (int i = 0; i < 30; ++i) {
    const Batch b = stream.next(kBatch);
    a.update_by_endpoints(b.deletions, b.insertions);
  }
  const std::string snap = save_str(a);
  DynamicMatcher reloaded(cfg, pool), shuffled(cfg, pool);
  for (DynamicMatcher* m : {&reloaded, &shuffled}) {
    std::istringstream in(snap);
    const SnapshotError err = m->load(in);
    ASSERT_TRUE(err.ok()) << err.to_string();
  }

  for (int i = 0; i < 120; ++i) {
    if (i % 10 == 0) {
      MemberOrderShuffle::run(shuffled, 1000 + static_cast<uint64_t>(i));
      MatchingChecker::check(shuffled);  // the lanes point right
    }
    SCOPED_TRACE("batch " + std::to_string(i));
    const Batch b = stream.next(kBatch);
    const auto want = a.update_by_endpoints(b.deletions, b.insertions);
    expect_same(want, reloaded.update_by_endpoints(b.deletions, b.insertions));
    expect_same(want, shuffled.update_by_endpoints(b.deletions, b.insertions));
    const std::string bytes = save_str(a);
    ASSERT_EQ(save_str(reloaded), bytes) << "the reload diverged";
    ASSERT_EQ(save_str(shuffled), bytes) << "the shuffled copy diverged";
  }
  MatchingChecker::check(a);
  // The stream reaches the paths whose order the test is about.
  EXPECT_GT(a.stats().settles, 0u);
  EXPECT_GT(a.stats().temp_deleted, 0u);
  if (p.repeats == 0) {
    EXPECT_GT(a.stats().settle_fallbacks, 0u);
  }
}

std::vector<OrderParams> matrix() {
  std::vector<OrderParams> out;
  for (uint32_t eager : {1u, 0u})
    for (uint32_t repeats : {64u, 0u})
      for (uint32_t rank : {2u, 3u})
        for (uint32_t zipf : {0u, 1u})
          for (uint32_t threads : {1u, 4u})
            out.push_back({eager, repeats, rank, zipf, threads});
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MemberOrder, testing::ValuesIn(matrix()), [](const auto& info) {
      const OrderParams& p = info.param;
      return testing_util::name_cat(p.eager ? "eager" : "lazy", "_rep",
                                    p.repeats, "_r", p.rank,
                                    p.zipf ? "_zipf" : "_uniform", "_t",
                                    p.threads);
    });

}  // namespace
}  // namespace pdmm
