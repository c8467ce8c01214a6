// Unit tests for the hyperedge registry substrate.
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <set>
#include <unordered_map>

#include "graph/registry.h"
#include "util/rng.h"

namespace pdmm {
namespace {

std::vector<Vertex> V(std::initializer_list<Vertex> l) { return l; }

TEST(Registry, InsertFindErase) {
  HyperedgeRegistry reg(2);
  const EdgeId a = reg.insert(V({1, 2}));
  const EdgeId b = reg.insert(V({2, 3}));
  EXPECT_NE(a, kNoEdge);
  EXPECT_NE(b, kNoEdge);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.find(V({2, 1})), a);  // canonical: order-insensitive
  EXPECT_EQ(reg.num_edges(), 2u);
  reg.erase(a);
  EXPECT_EQ(reg.find(V({1, 2})), kNoEdge);
  EXPECT_FALSE(reg.alive(a));
  EXPECT_TRUE(reg.alive(b));
}

TEST(Registry, DuplicateRejected) {
  HyperedgeRegistry reg(3);
  EXPECT_NE(reg.insert(V({5, 9, 2})), kNoEdge);
  EXPECT_EQ(reg.insert(V({2, 5, 9})), kNoEdge);
  EXPECT_EQ(reg.insert(V({9, 2, 5})), kNoEdge);
  EXPECT_EQ(reg.num_edges(), 1u);
}

TEST(Registry, EndpointsSortedAndRanked) {
  HyperedgeRegistry reg(4);
  const EdgeId e = reg.insert(V({9, 1, 5}));
  const auto eps = reg.endpoints(e);
  ASSERT_EQ(eps.size(), 3u);
  EXPECT_EQ(eps[0], 1u);
  EXPECT_EQ(eps[1], 5u);
  EXPECT_EQ(eps[2], 9u);
  EXPECT_EQ(reg.rank(e), 3u);
  EXPECT_EQ(reg.max_rank(), 4u);
}

TEST(Registry, IdRecycling) {
  HyperedgeRegistry reg(2);
  const EdgeId a = reg.insert(V({0, 1}));
  reg.erase(a);
  const EdgeId b = reg.insert(V({2, 3}));
  EXPECT_EQ(a, b) << "freed ids are recycled";
  EXPECT_EQ(reg.id_bound(), 1u);
}

TEST(Registry, VertexBoundTracksMax) {
  HyperedgeRegistry reg(2);
  reg.insert(V({0, 7}));
  EXPECT_EQ(reg.vertex_bound(), 8u);
  reg.insert(V({100, 3}));
  EXPECT_EQ(reg.vertex_bound(), 101u);
}

TEST(Registry, AllEdgesEnumerates) {
  HyperedgeRegistry reg(2);
  std::set<EdgeId> ids;
  for (Vertex i = 0; i < 10; ++i)
    ids.insert(reg.insert(V({i, static_cast<Vertex>(i + 100)})));
  auto all = reg.all_edges();
  EXPECT_EQ(std::set<EdgeId>(all.begin(), all.end()), ids);
}

TEST(Registry, Rank1Edges) {
  HyperedgeRegistry reg(1);
  const EdgeId a = reg.insert(V({42}));
  EXPECT_EQ(reg.find(V({42})), a);
  EXPECT_EQ(reg.insert(V({42})), kNoEdge);
  reg.erase(a);
  EXPECT_EQ(reg.find(V({42})), kNoEdge);
}

TEST(Registry, ChurnMatchesReferenceSet) {
  HyperedgeRegistry reg(2);
  std::set<std::pair<Vertex, Vertex>> ref;
  Xoshiro256 rng(31);
  for (int op = 0; op < 20000; ++op) {
    Vertex a = static_cast<Vertex>(rng.below(60));
    Vertex b = static_cast<Vertex>(rng.below(60));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    const std::vector<Vertex> eps{a, b};
    if (rng.uniform() < 0.55) {
      const EdgeId id = reg.insert(eps);
      EXPECT_EQ(id != kNoEdge, ref.insert({a, b}).second);
    } else {
      const EdgeId id = reg.find(eps);
      if (ref.count({a, b})) {
        ASSERT_NE(id, kNoEdge);
        reg.erase(id);
        ref.erase({a, b});
      } else {
        EXPECT_EQ(id, kNoEdge);
      }
    }
  }
  EXPECT_EQ(reg.num_edges(), ref.size());
  for (const auto& [a, b] : ref)
    EXPECT_NE(reg.find(V({a, b})), kNoEdge);
}

TEST(Registry, ManyEdgesStress) {
  HyperedgeRegistry reg(3);
  Xoshiro256 rng(5);
  std::vector<EdgeId> ids;
  for (int i = 0; i < 50000; ++i) {
    Vertex a = static_cast<Vertex>(rng.below(1 << 20));
    Vertex b = static_cast<Vertex>(rng.below(1 << 20));
    Vertex c = static_cast<Vertex>(rng.below(1 << 20));
    if (a == b || b == c || a == c) continue;
    const EdgeId id = reg.insert(V({a, b, c}));
    if (id != kNoEdge) ids.push_back(id);
  }
  EXPECT_EQ(reg.num_edges(), ids.size());
  for (size_t i = 0; i < ids.size(); i += 2) reg.erase(ids[i]);
  EXPECT_EQ(reg.num_edges(), ids.size() - (ids.size() + 1) / 2);
}

// --- the index: open addressing, backward-shift erase, LIFO id reuse ---

// Every set of 1..max_rank distinct vertices of [base, base + n), each
// sorted.
std::vector<std::vector<Vertex>> all_endpoint_sets(Vertex n, uint32_t max_rank,
                                                   Vertex base = 0) {
  std::vector<std::vector<Vertex>> out;
  std::vector<Vertex> cur;
  auto extend = [&](auto&& self, Vertex from) -> void {
    if (!cur.empty()) out.push_back(cur);
    if (cur.size() == max_rank) return;
    for (Vertex v = from; v < base + n; ++v) {
      cur.push_back(v);
      self(self, v + 1);
      cur.pop_back();
    }
  };
  extend(extend, base);
  return out;
}

// A registry driven beside a reference map and a LIFO model of its free
// list: every insertion must return the id the model predicts. Keys are
// handed over in reverse order, so the registry must canonicalize them.
struct ModelledRegistry {
  explicit ModelledRegistry(uint32_t max_rank) : reg(max_rank) {}

  // Fills a batch's output before the call: no id the tests reach.
  static constexpr EdgeId kUnwritten = kNoEdge - 1;

  static std::vector<Vertex> reversed(const std::vector<Vertex>& sorted) {
    return {sorted.rbegin(), sorted.rend()};
  }

  // The id the model gives `sorted`, recording it; kNoEdge for a set that
  // is already present.
  EdgeId model_insert(const std::vector<Vertex>& sorted) {
    if (ids.count(sorted)) return kNoEdge;
    EdgeId want = next_id;
    if (free_ids.empty()) {
      ++next_id;
    } else {
      want = free_ids.back();
      free_ids.pop_back();
    }
    ids.emplace(sorted, want);
    return want;
  }

  // Inserts `sorted`; returns the new id.
  EdgeId insert(const std::vector<Vertex>& sorted) {
    const EdgeId got = reg.insert(reversed(sorted));
    const EdgeId want = model_insert(sorted);
    EXPECT_EQ(got, want) << (want == kNoEdge ? "duplicate insertion accepted"
                                             : "wrong id");
    return got;
  }

  // Inserts `sorted` as one batch: each key gets the id the one-key calls
  // in input order would give it, so a repeat within the batch loses to
  // its first occurrence.
  void insert_batch(const std::vector<std::vector<Vertex>>& sorted) {
    std::vector<std::vector<Vertex>> keys;
    for (const auto& eps : sorted) keys.push_back(reversed(eps));
    std::vector<EdgeId> got(keys.size(), kUnwritten);
    reg.insert_batch(keys, got);
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(got[i], model_insert(sorted[i])) << "batch key " << i;
    }
  }

  // Erases a live edge picked uniformly; returns its id.
  EdgeId erase_random(Xoshiro256& rng) {
    const auto it = std::next(ids.begin(), rng.below(ids.size()));
    const EdgeId id = it->second;
    reg.erase(id);
    free_ids.push_back(id);
    ids.erase(it);
    return id;
  }

  // Erases up to `count` live edges, picked uniformly, as one batch in the
  // order picked; their ids join the free list in that order.
  void erase_random_batch(Xoshiro256& rng, size_t count) {
    std::vector<EdgeId> batch;
    while (batch.size() < count && !ids.empty()) {
      const auto it = std::next(ids.begin(), rng.below(ids.size()));
      batch.push_back(it->second);
      free_ids.push_back(it->second);
      ids.erase(it);
    }
    reg.erase_batch(batch);
  }

  // Looks `sorted` up as one batch.
  void find_batch(const std::vector<std::vector<Vertex>>& sorted) const {
    std::vector<std::vector<Vertex>> keys;
    for (const auto& eps : sorted) keys.push_back(reversed(eps));
    std::vector<EdgeId> got(keys.size(), kUnwritten);
    reg.find_batch(keys, got);
    for (size_t i = 0; i < sorted.size(); ++i) {
      EXPECT_EQ(got[i], expected(sorted[i])) << "batch key " << i;
    }
  }

  EdgeId expected(const std::vector<Vertex>& sorted) const {
    const auto it = ids.find(sorted);
    return it == ids.end() ? kNoEdge : it->second;
  }

  // Every set of the universe is found exactly under the model's id.
  void check(const std::vector<std::vector<Vertex>>& universe) const {
    ASSERT_EQ(reg.num_edges(), ids.size());
    for (const auto& eps : universe) ASSERT_EQ(reg.find(eps), expected(eps));
  }

  HyperedgeRegistry reg;
  std::map<std::vector<Vertex>, EdgeId> ids;
  std::vector<EdgeId> free_ids;
  EdgeId next_id = 0;
};

// Insert-heavy and erase-heavy stretches alternate every 250 operations, so
// the live count sweeps between near empty and near full.
bool insert_turn(int op, Xoshiro256& rng, const ModelledRegistry& m) {
  const double p_insert = (op / 250) % 2 == 0 ? 0.8 : 0.2;
  return m.ids.empty() || rng.uniform() < p_insert;
}

TEST(RegistryIndex, SmallUniversesMatchTheReferenceAfterEveryOperation) {
  // 24 to 63 endpoint sets share tables of 16 to 128 slots, so home slots
  // collide. Six vertex ranges per rank give six sets of home slots, so
  // probe runs, erase walks and backward shifts wrap past the table's end.
  // About half the turns are batches: an insert batch of up to 16 sets,
  // some repeated within the batch and some already present, or an erase
  // batch in random order, each followed by a find batch of present and
  // absent sets.
  const Vertex kVertices[] = {0, 24, 9, 7, 6};
  for (uint32_t max_rank = 1; max_rank <= 4; ++max_rank) {
    for (Vertex base = 0; base < 6000; base += 1000) {
      SCOPED_TRACE(testing::Message()
                   << "max_rank " << max_rank << ", base " << base);
      const auto universe =
          all_endpoint_sets(kVertices[max_rank], max_rank, base);
      const auto pick = [&](Xoshiro256& rng) {
        return universe[rng.below(universe.size())];
      };
      Xoshiro256 rng(100 * max_rank + base);
      // The whole universe, shuffled, in one batch into an empty registry:
      // more than 8 keys into its 16-slot table, so the batch grows the
      // table (by two doublings or more) before it places a key.
      {
        ModelledRegistry grown(max_rank);
        auto all = universe;
        for (size_t i = all.size(); i > 1; --i) {
          std::swap(all[i - 1], all[rng.below(i)]);
        }
        grown.insert_batch(all);
        ASSERT_NO_FATAL_FAILURE(grown.check(universe));
      }
      ModelledRegistry m(max_rank);
      for (int op = 0; op < 2000; ++op) {
        const bool batch = rng.below(2) == 0;
        if (!batch) {
          if (insert_turn(op, rng, m)) {
            m.insert(pick(rng));
          } else {
            m.erase_random(rng);
          }
        } else {
          if (insert_turn(op, rng, m)) {
            std::vector<std::vector<Vertex>> keys(1 + rng.below(16));
            for (size_t i = 0; i < keys.size(); ++i) {
              keys[i] = i > 0 && rng.below(4) == 0 ? keys[rng.below(i)]
                                                    : pick(rng);
            }
            m.insert_batch(keys);
          } else {
            m.erase_random_batch(rng, 1 + rng.below(16));
          }
          std::vector<std::vector<Vertex>> finds(1 + rng.below(16));
          for (auto& eps : finds) eps = pick(rng);
          m.find_batch(finds);
        }
        ASSERT_NO_FATAL_FAILURE(m.check(universe)) << "after operation " << op;
      }
    }
  }
}

TEST(RegistryIndex, RestoredImageContinuesWithTheSameIds) {
  const auto universe = all_endpoint_sets(8, 3);
  ModelledRegistry m(3);
  Xoshiro256 rng(7);
  for (int op = 0; op < 700; ++op) {
    if (insert_turn(op, rng, m)) {
      m.insert(universe[rng.below(universe.size())]);
    } else {
      m.erase_random(rng);
    }
  }
  ASSERT_FALSE(m.free_ids.empty());

  // The snapshot image: the id bound, each live edge under its id (here in
  // descending id order), then the free list. A second edge with a live
  // edge's endpoints is refused and leaves the image as it was.
  HyperedgeRegistry copy(3);
  copy.restore_begin(m.reg.id_bound());
  const auto live = m.reg.all_edges();
  for (auto it = live.rbegin(); it != live.rend(); ++it) {
    ASSERT_TRUE(copy.restore_slot(*it, m.reg.endpoints(*it)));
  }
  EXPECT_FALSE(
      copy.restore_slot(m.free_ids.front(), m.reg.endpoints(live.front())));
  copy.restore_free_list(m.reg.free_list());
  ASSERT_EQ(copy.num_edges(), m.reg.num_edges());
  ASSERT_EQ(copy.vertex_bound(), m.reg.vertex_bound());

  for (int op = 700; op < 2200; ++op) {
    if (insert_turn(op, rng, m)) {
      const auto& eps = universe[rng.below(universe.size())];
      ASSERT_EQ(copy.insert(eps), m.insert(eps)) << "operation " << op;
    } else {
      copy.erase(m.erase_random(rng));
    }
    ASSERT_NO_FATAL_FAILURE(m.check(universe));
    for (const auto& eps : universe) ASSERT_EQ(copy.find(eps), m.expected(eps));
  }
  EXPECT_EQ(copy.id_bound(), m.reg.id_bound());
}

TEST(RegistryIndex, QuarterMillionRank2EdgesEraseInRandomOrder) {
  // 2^18 live rank-2 edges fill the table to load 1/2, where probe runs are
  // long, and about C(2^18, 2) / 2^32 = 8 pairs of live edges share a
  // 32-bit tag. Keys are (a << 32 | b) with a < b.
  constexpr size_t kLive = size_t{1} << 18;
  constexpr uint64_t kVertices = 1 << 12;
  const auto eps_of = [](uint64_t key) {
    return std::array<Vertex, 2>{static_cast<Vertex>(key >> 32),
                                 static_cast<Vertex>(key)};
  };
  HyperedgeRegistry reg(2);
  std::unordered_map<uint64_t, EdgeId> ref;
  std::vector<uint64_t> keys;
  Xoshiro256 rng(2026);
  while (keys.size() < kLive) {
    Vertex a = static_cast<Vertex>(rng.below(kVertices));
    Vertex b = static_cast<Vertex>(rng.below(kVertices));
    if (a == b) continue;
    if (a > b) std::swap(a, b);
    const uint64_t key = uint64_t{a} << 32 | b;
    const EdgeId id = reg.insert(std::array<Vertex, 2>{b, a});
    if (ref.count(key)) {
      ASSERT_EQ(id, kNoEdge);
      continue;
    }
    ASSERT_EQ(id, keys.size()) << "fresh ids count up";
    ref.emplace(key, id);
    keys.push_back(key);
  }
  ASSERT_EQ(reg.num_edges(), kLive);
  for (uint64_t key : keys) ASSERT_EQ(reg.find(eps_of(key)), ref.at(key));

  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  std::vector<EdgeId> freed;
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto it = ref.find(keys[i]);
    reg.erase(it->second);
    freed.push_back(it->second);
    ref.erase(it);
    ASSERT_EQ(reg.find(eps_of(keys[i])), kNoEdge);
    if (i + 1 == keys.size()) break;
    const uint64_t other = keys[i + 1 + rng.below(keys.size() - i - 1)];
    ASSERT_EQ(reg.find(eps_of(other)), ref.at(other));
    if (i % (kLive / 8) == 0) {
      for (const auto& [key, id] : ref) ASSERT_EQ(reg.find(eps_of(key)), id);
    }
  }
  ASSERT_EQ(reg.num_edges(), 0u);

  // Fresh insertions take the freed ids back last-in, first-out.
  for (size_t i = 0; i < 1000; ++i) {
    const uint64_t key = (uint64_t{1} << 32) * i + kVertices + i;
    EXPECT_EQ(reg.insert(eps_of(key)), freed[freed.size() - 1 - i]);
  }
}

}  // namespace
}  // namespace pdmm
