// DynamicMatcher: update pipeline and structural primitives (§3.2–3.3).
// The grand-random-settle machinery lives in settle.cpp.
//
// Hot-path disciplines (see docs/ARCHITECTURE.md "Performance notes"):
//  * Structural phases compute, then apply: a read-only parallel pass
//    computes one mutation record per (edge, endpoint), and one serial
//    pass applies the records in record order. The cost model charges the
//    EREW algorithm's rounds (sort the records by vertex, apply each
//    vertex's records as its own task).
//  * Container member order is not state: O(v), A(v, l), D(e), S_l and
//    the undecided sets are read as sets by every decision (Luby's
//    priorities, settle marks and h draws hash edge ids; the sequential
//    settle sorts its candidates and walks its residue in vertex-id
//    order), so nothing sorts ids or records to fix an order. Duplicates
//    are dropped through flag lanes that are zero between uses.
//  * O(v) and A(v, l) are one incidence array adj(v) plus a count per set;
//    which set an edge is in is read from its owner and level lanes, so a
//    level move updates two counts and moves no member.
//  * S_l membership is cached per vertex as a bitmask; refreshes touch the
//    shared S_l sets only when a membership bit actually flips, and read a
//    vertex's counts only when its degree can reach a threshold.
//  * adj(v), D(e) and the undecided sets record each member's index in a
//    lane, so an erase is one indexed move, never a search.
//  * All phase-scoped buffers, per-call maps and Luby's lanes come from the
//    Scratch arena (grown once, reused every batch). A steady-state batch
//    still makes ~9 heap allocations at n = 2^13, k = 256 — the
//    BatchResult vectors and container growth; see matcher.h.
#include "core/matcher.h"

#include <algorithm>
#include <bit>
#include <utility>

#include "core/checker.h"
#include "parallel/pack.h"
#include "parallel/parallel_for.h"
#include "parallel/sort.h"
#include "serve/match_view.h"
#include "static_mm/luby.h"

namespace pdmm {

namespace {
// Epoch stats are kept in fixed-size arrays so the N-doubling rebuild never
// loses history; L = ceil(log_alpha N) <= 42 for alpha >= 4 and 64-bit N.
// The per-vertex S_l bitmask needs L + 1 <= 64 on top of that.
constexpr size_t kMaxLevels = 48;
static_assert(kMaxLevels <= 64, "S_l bitmask packs levels into a uint64");
}  // namespace

DynamicMatcher::DynamicMatcher(const Config& cfg, ThreadPool& pool)
    : cfg_(cfg),
      pool_(pool),
      scheme_(cfg.max_rank, std::max<uint64_t>(cfg.initial_capacity, 2)),
      rng_(cfg.seed),
      reg_(cfg.max_rank),
      epochs_(kMaxLevels) {
  PDMM_ASSERT(cfg.max_rank >= 1);
  PDMM_ASSERT(static_cast<size_t>(scheme_.top_level()) + 1 < kMaxLevels);
  s_.resize(static_cast<size_t>(scheme_.top_level()) + 1);
  undecided_.resize(static_cast<size_t>(scheme_.top_level()) + 1);
}

DynamicMatcher::~DynamicMatcher() = default;

std::vector<EdgeId> DynamicMatcher::matching() const {
  std::vector<EdgeId> out;
  out.reserve(matching_size_);
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) out.push_back(e);
  }
  return out;
}

std::vector<Vertex> DynamicMatcher::vertex_cover() const {
  // Exact reservation: matched hyperedges can have rank < max_rank, so
  // matching_size_ * max_rank over-allocates; count the members instead.
  size_t count = 0;
  for (Vertex v = 0; v < vhot_.size(); ++v) count += vhot_.matched(v) != kNoEdge;
  std::vector<Vertex> cover;
  cover.reserve(count);
  for (Vertex v = 0; v < vhot_.size(); ++v) {
    if (vhot_.matched(v) != kNoEdge) cover.push_back(v);
  }
  return cover;
}

uint64_t DynamicMatcher::o_tilde(Vertex v, Level l) const {
  if (v >= verts_.size()) return 0;
  const uint32_t* cnt = counts(v);
  const Level end = std::min(l, scheme_.top_level() + 1);
  uint64_t total = cnt[0];
  for (Level k = 0; k < end; ++k) total += cnt[bucket(false, k)];
  return total;
}

void DynamicMatcher::append_o_tilde(Vertex v, Level l,
                                    std::vector<EdgeId>& out) const {
  // v's owned edges sit at l(v) < l, so the level alone selects
  // O(v) ∪ A(v, l') over l' < l.
  PDMM_DASSERT(vhot_.level(v) < l);
  for (EdgeId e : verts_[v].adj) {
    if (elevel_[e] < l) out.push_back(e);
  }
}

std::vector<EdgeId> DynamicMatcher::collect_o_tilde(Vertex v, Level l) const {
  std::vector<EdgeId> out;
  out.reserve(o_tilde(v, l));
  append_o_tilde(v, l, out);
  return out;
}

std::vector<uint8_t>& DynamicMatcher::vertex_flags() {
  auto& flag = scratch_.vflag;
  if (flag.size() < verts_.size()) flag.resize(verts_.size(), 0);
  return flag;
}

std::vector<uint8_t>& DynamicMatcher::edge_flags() {
  auto& flag = scratch_.eflag;
  if (flag.size() < reg_.id_bound()) flag.resize(reg_.id_bound(), 0);
  return flag;
}

bool DynamicMatcher::distinct_ids(const std::vector<EdgeId>& ids) {
  auto& seen = edge_flags();
  bool distinct = true;
  for (EdgeId e : ids) distinct &= !std::exchange(seen[e], uint8_t{1});
  for (EdgeId e : ids) seen[e] = 0;
  return distinct;
}

void DynamicMatcher::grow_vertices(Vertex bound) {
  if (bound > verts_.size()) {
    verts_.resize(bound);
    vhot_.resize(bound);
    vcnt_.resize(bound * count_stride(), 0);
    undecided_pos_.resize(bound, kNoSlot);
  }
}

void DynamicMatcher::grow_edges(size_t bound) {
  if (bound <= elevel_.size()) return;
  elevel_.resize(bound, 0);
  eowner_.resize(bound, kNoVertex);
  eflags_.resize(bound, 0);
  eresp_.resize(bound, kNoEdge);
  edge_d_.resize(bound);
  epoch_d_deleted_.resize(bound, 0);
  eslot_.resize(bound * reg_.max_rank(), kNoSlot);
  dslot_.resize(bound, kNoSlot);
}

// ---------------------------------------------------------------------------
// S_l maintenance
// ---------------------------------------------------------------------------

bool DynamicMatcher::may_rise(Vertex v) const {
  const Level lv = vhot_.level(v);
  return lv < scheme_.top_level() &&
         verts_[v].adj.size() >= scheme_.rise_threshold(lv + 1);
}

uint64_t DynamicMatcher::compute_s_mask(Vertex v) const {
  if (!may_rise(v)) return 0;
  const uint32_t* cnt = counts(v);
  const Level top = scheme_.top_level();
  const uint64_t total = verts_[v].adj.size();
  uint64_t mask = 0;
  uint64_t o_til = cnt[0];  // running value of o~(v, l)
  for (Level l = 0; l <= top; ++l) {
    const uint64_t thr = scheme_.rise_threshold(l);
    // o~(v, l) never exceeds `total` and thresholds grow geometrically, so
    // once one is out of reach every later one is too.
    if (thr > total) break;
    mask |= static_cast<uint64_t>(o_til >= thr) << l;
    o_til += cnt[bucket(false, l)];
  }
  // S_l requires l(v) < l: clear bits 0..l(v) arithmetically. l(v) is in
  // [-1, top], so the shift count lands in [0, top+1] — never UB.
  return mask & (~uint64_t{0} << (vhot_.level(v) + 1));
}

void DynamicMatcher::refresh_s_membership(Vertex v) {
  const uint64_t nm = compute_s_mask(v);
  uint64_t delta = nm ^ vhot_.s_mask(v);
  if (delta == 0) return;
  vhot_.set_s_mask(v, nm);
  do {
    const int l = std::countr_zero(delta);
    delta &= delta - 1;
    if ((nm >> l) & 1) {
      s_[static_cast<size_t>(l)].insert(v);
    } else {
      s_[static_cast<size_t>(l)].erase(v);
    }
  } while (delta != 0);
}

void DynamicMatcher::refresh_s_membership_all(
    const std::vector<Vertex>& touched) {
  if (touched.empty()) return;
  // Pass 1 (parallel; `touched` is duplicate-free, so the per-vertex mask
  // writes are disjoint): recompute each mask, remember which bits flip.
  // Most touched vertices fail may_rise(), and compute_s_mask answers
  // those from the level lane and |adj(v)| alone, without reading the
  // vertex's count lane.
  auto& deltas = scratch_.s_deltas;
  deltas.resize(touched.size());
  parallel_for(pool_, touched.size(), [&](size_t i) {
    const Vertex v = touched[i];
    const uint64_t nm = compute_s_mask(v);
    deltas[i] = nm ^ vhot_.s_mask(v);
    vhot_.set_s_mask(v, nm);
  });
  cost_.round(touched.size());

  // Pass 2: apply the (rare) flips straight from the deltas.
  uint64_t flips = 0, levels = 0;
  for (size_t i = 0; i < touched.size(); ++i) {
    uint64_t delta = deltas[i];
    if (delta == 0) continue;
    flips += static_cast<uint64_t>(std::popcount(delta));
    levels |= delta;
    const Vertex v = touched[i];
    const uint64_t nm = vhot_.s_mask(v);
    do {
      const int l = std::countr_zero(delta);
      delta &= delta - 1;
      IndexedSet& s = s_[static_cast<size_t>(l)];
      if ((nm >> l) & 1) {
        s.insert(v);
      } else {
        s.erase(v);
      }
    } while (delta != 0);
  }
  if (flips == 0) return;
  // The EREW rounds: sort the flips by level, then apply each level's as a
  // task.
  cost_.round(flips);
  cost_.round(static_cast<uint64_t>(std::popcount(levels)));
}

// ---------------------------------------------------------------------------
// Structural primitives
// ---------------------------------------------------------------------------

void DynamicMatcher::attach(EdgeId e, uint32_t j, Vertex u, bool owner,
                            Level l) {
  auto& adj = verts_[u].adj;
  eslot(e, j) = static_cast<uint32_t>(adj.size());
  adj.push_back(e);
  ++counts(u)[bucket(owner, l)];
}

void DynamicMatcher::detach(EdgeId e, uint32_t j, Vertex u, bool owner,
                            Level l) {
  auto& adj = verts_[u].adj;
  const uint32_t i = eslot(e, j);
  PDMM_DASSERT(i < adj.size() && adj[i] == e);
  --counts(u)[bucket(owner, l)];
  const EdgeId last = adj.back();
  adj[i] = last;
  adj.pop_back();
  if (i == adj.size()) return;  // the erased member was the last one
  const auto eps = reg_.endpoints(last);
  uint32_t k = 0;
  while (eps[k] != u) ++k;
  eslot(last, k) = i;
}

void DynamicMatcher::undecided_insert(Vertex v) {
  if (undecided_pos_[v] != kNoSlot) return;
  const Level l = vhot_.level(v);
  PDMM_DASSERT(l >= 0);
  auto& list = undecided_[static_cast<size_t>(l)];
  undecided_pos_[v] = static_cast<uint32_t>(list.size());
  list.push_back(v);
}

void DynamicMatcher::undecided_erase(Vertex v) {
  const uint32_t i = undecided_pos_[v];
  if (i == kNoSlot) return;
  const Level l = vhot_.level(v);
  PDMM_DASSERT(l >= 0);
  auto& list = undecided_[static_cast<size_t>(l)];
  PDMM_DASSERT(i < list.size() && list[i] == v);
  const Vertex last = list.back();
  list[i] = last;
  list.pop_back();
  undecided_pos_[last] = i;
  undecided_pos_[v] = kNoSlot;
}

void DynamicMatcher::remove_edge_from_structures(EdgeId e) {
  const auto eps = reg_.endpoints(e);
  const Vertex owner = eowner_[e];
  const Level l = elevel_[e];
  for (uint32_t j = 0; j < eps.size(); ++j) {
    detach(e, j, eps[j], eps[j] == owner, l);
  }
  for (Vertex u : eps) refresh_s_membership(u);
  cost_.add_work(eps.size() * 2);
}

void DynamicMatcher::apply_struct_muts(bool insert) {
  // One pass in record order. The flag lane lists every touched vertex
  // once, in first-seen order.
  auto& flag = vertex_flags();
  auto& touched = scratch_.touched;
  touched.clear();
  uint64_t applied = 0;
  for (const StructMut& m : scratch_.struct_muts) {
    if (m.u == kNoVertex) continue;  // empty slot of an edge of rank < r
    ++applied;
    if (insert) {
      attach(m.e, m.j, m.u, m.is_owner, m.lvl);
    } else {
      detach(m.e, m.j, m.u, m.is_owner, m.lvl);
    }
    if (!std::exchange(flag[m.u], uint8_t{1})) touched.push_back(m.u);
  }
  if (touched.empty()) return;
  // The EREW rounds: sort the records by vertex, then apply each vertex's
  // records as its own task.
  cost_.round(applied);
  cost_.round(touched.size());
  for (Vertex v : touched) flag[v] = 0;
  refresh_s_membership_all(touched);
}

void DynamicMatcher::insert_edges_into_structures(
    const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  PDMM_DASSERT(distinct_ids(ids));
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.struct_muts;
  muts.assign(ids.size() * r, StructMut{});
  parallel_for(pool_, ids.size(), [&](size_t i) {
    const EdgeId e = ids[i];
    const auto eps = reg_.endpoints(e);
    Vertex owner = eps[0];
    Level maxl = vhot_.level(eps[0]);
    for (size_t j = 1; j < eps.size(); ++j) {
      if (vhot_.level(eps[j]) > maxl) {
        maxl = vhot_.level(eps[j]);
        owner = eps[j];
      }
    }
    PDMM_ASSERT_MSG(maxl >= 0,
                    "an edge with all endpoints unmatched cannot be placed");
    elevel_[e] = maxl;
    eowner_[e] = owner;
    for (size_t j = 0; j < eps.size(); ++j) {
      muts[i * r + j] =
          StructMut{eps[j], e, maxl, static_cast<uint8_t>(eps[j] == owner),
                    static_cast<uint8_t>(j)};
    }
  });
  cost_.round(ids.size() * r);
  apply_struct_muts(/*insert=*/true);
}

void DynamicMatcher::remove_edges_from_structures(
    const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  PDMM_DASSERT(distinct_ids(ids));
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.struct_muts;
  muts.assign(ids.size() * r, StructMut{});
  parallel_for(pool_, ids.size(), [&](size_t i) {
    const EdgeId e = ids[i];
    const auto eps = reg_.endpoints(e);
    const Vertex owner = eowner_[e];
    const Level l = elevel_[e];
    for (size_t j = 0; j < eps.size(); ++j) {
      muts[i * r + j] =
          StructMut{eps[j], e, l, static_cast<uint8_t>(eps[j] == owner),
                    static_cast<uint8_t>(j)};
    }
  });
  cost_.round(ids.size() * r);
  apply_struct_muts(/*insert=*/false);
}

void DynamicMatcher::apply_level_moves(const std::vector<LevelMove>& moves) {
  if (moves.empty()) return;
  // The S_l refresh below needs every vertex whose mask can have changed,
  // once: the movers, then the vertices with a live count move that are
  // not movers. Bit 1 of the vertex flag marks a mover, bit 2 a vertex
  // with a live move; the touched list names every flagged vertex.
  auto& flag = vertex_flags();
  auto& touched = scratch_.touched;
  touched.clear();
  for (const LevelMove& mv : moves) {
    PDMM_ASSERT_MSG(flag[mv.v] == 0, "duplicate vertex in level-move batch");
    flag[mv.v] = 1;
    touched.push_back(mv.v);
  }

  // Collect affected edges before levels change: every owned edge of a
  // mover, plus (for risers) every edge in A(v, l') with l' < target —
  // those get captured by the riser (batch set-level, Claim 3.4). A riser
  // to t takes exactly the adj(v) edges below t: its owned edges sit at
  // l(v) < t, every other edge at a level >= l(v). A mover whose counts
  // leave nothing to take is not scanned. An edge of two movers is
  // gathered once, through the edge flag lane; the round still charges
  // every gathered member.
  auto& affected = scratch_.affected;
  auto& seen = edge_flags();
  affected.clear();
  size_t need = 0;
  const auto take = [&](EdgeId e) {
    if (!std::exchange(seen[e], uint8_t{1})) affected.push_back(e);
  };
  for (const LevelMove& mv : moves) {
    const auto& adj = verts_[mv.v].adj;
    if (mv.to > vhot_.level(mv.v)) {
      const uint64_t n = o_tilde(mv.v, mv.to);
      if (n == 0) continue;
      need += n;
      for (EdgeId e : adj) {
        if (elevel_[e] < mv.to) take(e);
      }
    } else {
      const uint32_t n = counts(mv.v)[0];
      if (n == 0) continue;
      need += n;
      for (EdgeId e : adj) {
        if (eowner_[e] == mv.v) take(e);
      }
    }
  }
  for (EdgeId e : affected) seen[e] = 0;
  cost_.round(need + moves.size());

  for (const LevelMove& mv : moves) vhot_.set_level(mv.v, mv.to);

  // Recompute level + owner of each affected edge from the new vertex
  // levels (parallel; per-edge state is disjoint).
  const uint32_t r = reg_.max_rank();
  auto& muts = scratch_.move_muts;
  muts.assign(affected.size() * r, MoveMut{});
  parallel_for(pool_, affected.size(), [&](size_t i) {
    const EdgeId e = affected[i];
    const auto eps = reg_.endpoints(e);
    const Vertex old_owner = eowner_[e];
    const Level old_lvl = elevel_[e];

    Level maxl = kUnmatchedLevel;
    for (Vertex u : eps) maxl = std::max(maxl, vhot_.level(u));
    PDMM_ASSERT_MSG(maxl >= 0, "affected edge stranded at level -1");
    Vertex new_owner;
    if (vhot_.level(old_owner) == maxl) {
      new_owner = old_owner;  // keep the owner while it stays maximal
    } else {
      new_owner = kNoVertex;
      for (Vertex u : eps) {
        if (vhot_.level(u) == maxl) {
          new_owner = u;  // endpoints sorted: smallest-id maximal endpoint
          break;
        }
      }
    }
    if (eflags_[e] & kMatched) {
      for ([[maybe_unused]] Vertex u : eps)
        PDMM_DASSERT(vhot_.level(u) == maxl);
    }
    elevel_[e] = maxl;
    eowner_[e] = new_owner;
    for (size_t j = 0; j < eps.size(); ++j) {
      const uint32_t from = bucket(eps[j] == old_owner, old_lvl);
      const uint32_t to = bucket(eps[j] == new_owner, maxl);
      if (from != to) muts[i * r + j] = MoveMut{eps[j], from, to};
    }
  });
  cost_.round(affected.size() * r);

  // Apply the count moves in one pass in record order. adj(u) keeps its
  // members: only the set an edge is counted in changes.
  uint64_t applied = 0, live_vertices = 0;
  for (const MoveMut& m : muts) {
    if (m.u == kNoVertex) continue;  // empty slot, or the edge kept its set
    ++applied;
    uint32_t* cnt = counts(m.u);
    --cnt[m.from];
    ++cnt[m.to];
    if (!(flag[m.u] & 2)) {
      flag[m.u] |= 2;
      ++live_vertices;
      if (!(flag[m.u] & 1)) touched.push_back(m.u);
    }
  }
  if (applied != 0) {  // the EREW rounds, as in apply_struct_muts
    cost_.round(applied);
    cost_.round(live_vertices);
  }

  // Refresh S_l membership of every vertex whose mask can have changed:
  // the movers (their level term changed) and the vertices with a live
  // count move (their per-level counts changed). An affected-edge endpoint
  // whose edges all kept their sets kept every count and its level, so
  // its mask is arithmetically unchanged.
  for (Vertex v : touched) flag[v] = 0;
  refresh_s_membership_all(touched);
}

// ---------------------------------------------------------------------------
// Matching bookkeeping
// ---------------------------------------------------------------------------

void DynamicMatcher::set_matched(EdgeId e, Level l) {
  PDMM_DASSERT(!(eflags_[e] & kMatched));
  eflags_[e] |= kMatched;
  ++matching_size_;
  for (Vertex u : reg_.endpoints(e)) {
    PDMM_DASSERT(vhot_.matched(u) == kNoEdge);
    vhot_.set_matched(u, e);
    undecided_erase(u);
  }
  if (cfg_.collect_epoch_stats) {
    epochs_.created[static_cast<size_t>(l)]++;
  }
  epoch_d_deleted_[e] = 0;
  batch_journal_.emplace_back(e, int8_t{+1});
}

void DynamicMatcher::set_unmatched(EdgeId e, bool natural) {
  PDMM_DASSERT(eflags_[e] & kMatched);
  const Level l = elevel_[e];
  eflags_[e] &= static_cast<uint8_t>(~kMatched);
  --matching_size_;
  for (Vertex u : reg_.endpoints(e)) {
    if (vhot_.matched(u) != e) continue;
    vhot_.set_matched(u, kNoEdge);
    undecided_insert(u);
  }
  if (cfg_.collect_epoch_stats) {
    auto& ended = natural ? epochs_.ended_natural : epochs_.ended_induced;
    ended[static_cast<size_t>(l)]++;
    epochs_.d_budget_consumed[static_cast<size_t>(l)] += epoch_d_deleted_[e];
  }
  epoch_d_deleted_[e] = 0;
  batch_journal_.emplace_back(e, int8_t{-1});
}

void DynamicMatcher::dissolve_d(EdgeId e) {
  EdgeList* d = edge_d_[e].get();
  if (!d || d->empty()) return;
  for (EdgeId f : *d) {
    PDMM_DASSERT(eflags_[f] & kTempDeleted);
    eflags_[f] &= static_cast<uint8_t>(~kTempDeleted);
    eresp_[f] = kNoEdge;
    reinsert_queue_.push_back(f);
    ++stats_.reinserted;
  }
  cost_.round(d->size());
  d->clear();
}

void DynamicMatcher::temp_delete_bookkeep(EdgeId f, EdgeId responsible) {
  PDMM_DASSERT(!(eflags_[f] & (kMatched | kTempDeleted)));
  eflags_[f] |= kTempDeleted;
  eresp_[f] = responsible;
  if (!edge_d_[responsible])
    edge_d_[responsible] = std::make_unique<EdgeList>();
  EdgeList& d = *edge_d_[responsible];
  dslot_[f] = static_cast<uint32_t>(d.size());
  d.push_back(f);
  ++stats_.temp_deleted;
  if (cfg_.collect_epoch_stats) {
    epochs_.d_size_at_creation[static_cast<size_t>(elevel_[responsible])]++;
  }
}

void DynamicMatcher::temp_delete(EdgeId f, EdgeId responsible) {
  PDMM_DASSERT(!(eflags_[f] & (kMatched | kTempDeleted)));
  remove_edge_from_structures(f);
  temp_delete_bookkeep(f, responsible);
}

// ---------------------------------------------------------------------------
// Deletion phases (§3.3.1 and the entry of §3.3.2)
// ---------------------------------------------------------------------------

void DynamicMatcher::phase_delete_unmatched(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  remove_edges_from_structures(edges);
}

void DynamicMatcher::phase_delete_temp(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  for (EdgeId e : edges) {
    const EdgeId resp = eresp_[e];
    PDMM_DASSERT(resp != kNoEdge && (eflags_[resp] & kMatched));
    EdgeList& d = *edge_d_[resp];
    const uint32_t i = dslot_[e];
    PDMM_DASSERT(i < d.size() && d[i] == e);
    d[i] = d.back();  // swap-with-last: the moved member's lane follows
    d.pop_back();
    if (i != d.size()) dslot_[d[i]] = i;
    ++epoch_d_deleted_[resp];  // amortization budget of resp's epoch
    eflags_[e] &= static_cast<uint8_t>(~kTempDeleted);
    eresp_[e] = kNoEdge;
  }
  cost_.round(edges.size());
}

void DynamicMatcher::phase_delete_matched(const std::vector<EdgeId>& edges) {
  if (edges.empty()) return;
  // Matching bookkeeping (journal, undecided sets, D dissolution) is serial
  // and cheap; the structural removals — the expensive part — batch.
  for (EdgeId e : edges) {
    set_unmatched(e, /*natural=*/true);
    dissolve_d(e);
  }
  cost_.round(edges.size());
  remove_edges_from_structures(edges);
}

// ---------------------------------------------------------------------------
// The level sweep (§3.3.2)
// ---------------------------------------------------------------------------

void DynamicMatcher::level_sweep() {
  for (Level l = scheme_.top_level(); l >= 0; --l) {
    process_level_step1(l);
    grand_random_settle(l);
  }
}

void DynamicMatcher::process_level_step1(Level l) {
  const std::vector<Vertex>& u_set = undecided_[static_cast<size_t>(l)];
  if (u_set.empty()) return;
  // A copy: the drop to level -1 below erases from u_set while walking.
  auto& u_nodes = scratch_.u_nodes;
  u_nodes.assign(u_set.begin(), u_set.end());

  // U_free: edges owned by an undecided node of this level whose endpoints
  // are all unmatched. Ownership makes the union duplicate-free.
  auto& candidates = scratch_.candidates;
  candidates.clear();
  for (Vertex v : u_nodes) {
    PDMM_DASSERT(vhot_.matched(v) == kNoEdge && vhot_.level(v) == l);
    if (counts(v)[0] == 0) continue;
    for (EdgeId e : verts_[v].adj) {
      if (eowner_[e] == v) candidates.push_back(e);
    }
  }
  cost_.round(candidates.size() + u_nodes.size());

  auto& u_free = scratch_.free_edges;
  pack_values_into(
      pool_, candidates,
      [&](size_t i) {
        for (Vertex u : reg_.endpoints(candidates[i])) {
          if (vhot_.matched(u) != kNoEdge) return false;
        }
        return true;
      },
      u_free, scratch_.pack_flags);
  cost_.round(candidates.size() * reg_.max_rank());

  auto& moves = scratch_.moves;
  moves.clear();
  match_free_edges(u_free, hash_mix(cfg_.seed, batch_counter_,
                                    0xA11CE000ull + static_cast<uint64_t>(l)));
  // Undecided nodes that stayed unmatched drop to level -1.
  for (Vertex v : u_nodes) {
    if (vhot_.matched(v) == kNoEdge) {
      moves.push_back({v, kUnmatchedLevel});
      undecided_erase(v);
    }
  }
  apply_level_moves(moves);
  PDMM_ASSERT(u_set.empty());
}

// ---------------------------------------------------------------------------
// Insertion phase (§3.3.3)
// ---------------------------------------------------------------------------

void DynamicMatcher::phase_insert(const std::vector<EdgeId>& ids) {
  if (ids.empty()) return;
  grow_edges(reg_.id_bound());

  // S_free: inserted edges whose endpoints are all currently unmatched.
  auto& s_free = scratch_.free_edges;
  pack_values_into(
      pool_, ids,
      [&](size_t i) {
        for (Vertex u : reg_.endpoints(ids[i])) {
          if (vhot_.matched(u) != kNoEdge) return false;
        }
        return true;
      },
      s_free, scratch_.pack_flags);
  cost_.round(ids.size() * reg_.max_rank());

  scratch_.moves.clear();
  match_free_edges(s_free, hash_mix(cfg_.seed, batch_counter_, 0x1A5E47ull));
  apply_level_moves(scratch_.moves);

  insert_edges_into_structures(ids);
}

void DynamicMatcher::match_free_edges(std::span<const EdgeId> free_edges,
                                      uint64_t seed) {
  if (free_edges.empty()) return;
  StaticMMResult& mm = scratch_.luby_out;
  static_maximal_matching(pool_, reg_, free_edges, seed, scratch_.luby, mm,
                          &cost_);
  stats_.static_mm_rounds += mm.rounds;
  for (EdgeId e : mm.matched) {
    set_matched(e, 0);  // static-MM matches land on level 0
    for (Vertex u : reg_.endpoints(e)) scratch_.moves.push_back({u, 0});
  }
}

size_t DynamicMatcher::total_undecided() const {
  size_t n = 0;
  for (const auto& u : undecided_) n += u.size();
  return n;
}

void DynamicMatcher::drain_eager() {
  for (uint32_t it = 0; it < cfg_.max_eager_sweeps; ++it) {
    ++stats_.eager_sweeps;
    level_sweep();
    if (reinsert_queue_.empty() && total_undecided() == 0) {
      // Clean only when no rising set survived either; kicks during the
      // sweep can have re-populated them via reinsertion below.
      bool any_rising = false;
      for (const auto& s : s_) any_rising |= !s.empty();
      if (!any_rising) return;
    }
    auto& q = scratch_.eager_queue;
    q.clear();
    q.swap(reinsert_queue_);
    phase_insert(q);
  }
  // Cap hit: Invariant 3.5(2) is handed to the next batch (as lazy mode
  // always does), but undecided nodes and kicked edges must not leak across
  // the batch boundary. Step-1 sweeps and insertions create neither, so one
  // extra pass resolves the residue without settling.
  ++stats_.eager_cap_hits;
  while (!reinsert_queue_.empty() || total_undecided() != 0) {
    auto& q = scratch_.eager_queue;
    q.clear();
    q.swap(reinsert_queue_);
    phase_insert(q);
    for (Level l = scheme_.top_level(); l >= 0; --l) process_level_step1(l);
  }
}

// ---------------------------------------------------------------------------
// Rebuild (§3.2.1 N-doubling)
// ---------------------------------------------------------------------------

void DynamicMatcher::reset_state() {
  forget_view_base();
  // Journal the wholesale unmatching so callers' diffs stay correct, and
  // close the epochs of all matched edges.
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) {
      if (cfg_.collect_epoch_stats) {
        epochs_.ended_induced[static_cast<size_t>(elevel_[e])]++;
        epochs_.d_budget_consumed[static_cast<size_t>(elevel_[e])] +=
            epoch_d_deleted_[e];
      }
      batch_journal_.emplace_back(e, int8_t{-1});
    }
  }
  verts_.clear();
  vhot_.clear();
  vcnt_.clear();
  elevel_.clear();
  eowner_.clear();
  eflags_.clear();
  eresp_.clear();
  edge_d_.clear();
  epoch_d_deleted_.clear();
  eslot_.clear();
  dslot_.clear();
  s_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  undecided_.assign(static_cast<size_t>(scheme_.top_level()) + 1, {});
  undecided_pos_.clear();
  reinsert_queue_.clear();
  matching_size_ = 0;
}

void DynamicMatcher::rebuild() {
  PDMM_ASSERT(static_cast<size_t>(scheme_.top_level()) + 1 < kMaxLevels);
  reset_state();
  grow_vertices(reg_.vertex_bound());
  grow_edges(reg_.id_bound());
  ++stats_.rebuilds;

  const std::vector<EdgeId> all = reg_.all_edges();
  cost_.round(all.size());
  // From scratch everything is free: one static MM seeds the matching (all
  // matched edges at level 0), then every edge enters the structures.
  scratch_.moves.clear();
  match_free_edges(all, hash_mix(cfg_.seed, batch_counter_, 0x4eb01dull));
  apply_level_moves(scratch_.moves);
  insert_edges_into_structures(all);
}

void DynamicMatcher::maybe_rebuild(size_t incoming_updates) {
  if (!cfg_.auto_rebuild) return;
  if (updates_used_ + incoming_updates <= scheme_.n_bound()) return;
  const uint64_t new_n = 2 * std::max<uint64_t>(
      scheme_.n_bound(),
      updates_used_ + incoming_updates + reg_.vertex_bound());
  scheme_ = LevelScheme(cfg_.max_rank, new_n);
  updates_used_ = 0;
  rebuild();
}

// ---------------------------------------------------------------------------
// Batch update entry point (§3.3)
// ---------------------------------------------------------------------------

DynamicMatcher::BatchResult DynamicMatcher::update_by_endpoints(
    std::span<const std::vector<Vertex>> deletions,
    std::span<const std::vector<Vertex>> insertions) {
  auto& dels = scratch_.endpoint_dels;
  dels.resize(deletions.size());
  reg_.find_batch(deletions, dels);
  for (const EdgeId e : dels) {
    PDMM_ASSERT_MSG(e != kNoEdge, "deletion of an absent edge (by endpoints)");
  }
  return update(dels, insertions);
}

DynamicMatcher::BatchResult DynamicMatcher::update(
    std::span<const EdgeId> deletions,
    std::span<const std::vector<Vertex>> insertions) {
  // Single-updater contract: exactly one thread drives updates at a time
  // (the class has no internal locking), so the calling thread holds the
  // updater role by construction. This assertion is the trust boundary
  // that lets the analysis check the updater-only state below (the
  // post-batch hook slot) without annotating every update() caller.
  updater_role_.assert_held();
  BatchResult res;
  const CostCounters cost_before = cost_;
  const uint64_t rebuilds_before = stats_.rebuilds;
  batch_journal_.clear();

  maybe_rebuild(deletions.size() + insertions.size());

  ++batch_counter_;
  ++stats_.batches;
  reinsert_queue_.clear();

  // --- classify deletions ---
  auto& dels = scratch_.dels;
  dels.assign(deletions.begin(), deletions.end());
  parallel_sort_with(pool_, dels, scratch_.sort_buf);
  dels.erase(std::unique(dels.begin(), dels.end()), dels.end());
  auto& del_unmatched = scratch_.del_unmatched;
  auto& del_temp = scratch_.del_temp;
  auto& del_matched = scratch_.del_matched;
  del_unmatched.clear();
  del_temp.clear();
  del_matched.clear();
  for (EdgeId e : dels) {
    PDMM_ASSERT_MSG(reg_.alive(e), "deletion of an absent edge");
    if (eflags_[e] & kMatched) {
      del_matched.push_back(e);
    } else if (eflags_[e] & kTempDeleted) {
      del_temp.push_back(e);
    } else {
      del_unmatched.push_back(e);
    }
  }
  updates_used_ += dels.size() + insertions.size();
  stats_.updates += dels.size() + insertions.size();

  // --- groups 1 & 2: deletions, then the level sweep ---
  phase_delete_temp(del_temp);
  phase_delete_unmatched(del_unmatched);
  phase_delete_matched(del_matched);
  // Retire all deleted ids in sorted order (the classification above
  // removed them from every structure already). A single sorted erase pass
  // keeps free-list id assignment identical across all matcher
  // implementations driven by the same stream.
  reg_.erase_batch(dels);
  for (EdgeId e : dels) batch_journal_.emplace_back(e, int8_t{0});
  level_sweep();

  // --- group 3: insertions (user + kicked edges + dissolved D sets) ---
  res.inserted_ids.resize(insertions.size());
  reg_.insert_batch(insertions, res.inserted_ids);
  auto& new_ids = scratch_.new_ids;
  new_ids.clear();
  for (const EdgeId id : res.inserted_ids) {
    if (id != kNoEdge) new_ids.push_back(id);
  }
  grow_vertices(reg_.vertex_bound());
  grow_edges(reg_.id_bound());
  cost_.round(insertions.size() * reg_.max_rank());

  new_ids.insert(new_ids.end(), reinsert_queue_.begin(),
                 reinsert_queue_.end());
  reinsert_queue_.clear();
  phase_insert(new_ids);

  // --- optional eager settle sweeps: Invariant 3.5(2) after every batch ---
  if (cfg_.settle_after_insertions) drain_eager();

  // --- replay the journal into a post-state-wins diff ---
  // One stable sort by edge id lines up each id's events in journal order,
  // and the ids ascend, so one pass over the groups emits both lists
  // sorted. Within a group, a retirement (0) closes the current identity,
  // reporting its loss of matched status if it started matched, and later
  // events belong to a fresh identity under the recycled id.
  radix_sort_by(batch_journal_, scratch_.journal_buf,
                [](const std::pair<EdgeId, int8_t>& ev) { return ev.first; });
  // Each newly matched id needs a +1 event, each newly unmatched one a -1.
  size_t gains = 0;
  for (const auto& ev : batch_journal_) gains += ev.second > 0;
  res.newly_matched.reserve(gains);
  res.newly_unmatched.reserve(batch_journal_.size() - gains);
  for (size_t i = 0; i < batch_journal_.size();) {
    const EdgeId e = batch_journal_[i].first;
    bool seen = false, initial = false, cur = false;
    for (; i < batch_journal_.size() && batch_journal_[i].first == e; ++i) {
      const int8_t ev = batch_journal_[i].second;
      if (ev == 0) {
        // Retirement: matched edges are always unmatched before deletion.
        PDMM_DASSERT(!seen || !cur);
        if (seen && initial) res.newly_unmatched.push_back(e);
        seen = false;
        continue;
      }
      const bool now = ev > 0;
      PDMM_DASSERT(!seen || cur != now);
      if (!seen) {
        seen = true;
        initial = !now;
      }
      cur = now;
    }
    if (seen && !initial && cur) res.newly_matched.push_back(e);
    if (seen && initial && !cur) res.newly_unmatched.push_back(e);
  }

  res.rebuilt = stats_.rebuilds > rebuilds_before;
  res.work = cost_.work - cost_before.work;
  res.rounds = cost_.rounds - cost_before.rounds;
  log_view_changes();

  if (cfg_.check_invariants) MatchingChecker::check(*this);
  if (post_batch_hook_) post_batch_hook_(res);
  return res;
}

// ---------------------------------------------------------------------------
// Concurrent read path: view export (src/serve)
// ---------------------------------------------------------------------------

MatchView DynamicMatcher::make_view() const {
  MatchView view;
  build_view_full(view);
  return view;
}

void DynamicMatcher::make_view_into(MatchView& out, const MatchView* base) {
  if (base != nullptr && base != &out && base == view_base_.view &&
      base->epoch == view_base_.epoch) {
    build_view_delta(out, *base);
    ++stats_.view_delta_captures;
    if (cfg_.check_invariants) {
      PDMM_ASSERT_MSG(out == make_view(),
                      "delta view capture differs from the full build");
    }
  } else {
    build_view_full(out);
  }
  // `out` is the next capture's base: log changes relative to it.
  view_base_.view = &out;
  view_base_.epoch = out.epoch;
  view_base_.changed_edges.clear();
  vhot_.restart_change_log();
}

void DynamicMatcher::log_view_changes() {
  if (view_base_.view == nullptr) return;
  auto& log = view_base_.changed_edges;
  for (const auto& [e, ev] : batch_journal_) log.push_back(e);
  // Nobody may capture again (a service that went away): keep the log
  // bounded. Past about one entry per edge id the full build is no dearer
  // than sorting the log, so nothing is lost by dropping the base.
  if (log.size() > std::max<size_t>(eflags_.size(), 1024)) forget_view_base();
}

void DynamicMatcher::forget_view_base() {
  view_base_.view = nullptr;
  view_base_.changed_edges.clear();
  vhot_.stop_change_log();
}

void DynamicMatcher::build_view_delta(MatchView& out, const MatchView& base) {
  out.epoch = batch_counter_;
  out.max_rank = reg_.max_rank();

  // Per-vertex lanes: base's lanes grown to today's vertex bound (new
  // vertices start unmatched at level -1, as in vhot_), then every vertex
  // written since the base capture re-read from vhot_.
  const size_t nv = vhot_.size();
  PDMM_DASSERT(base.vmatch.size() <= nv);
  out.vmatch.assign(base.vmatch.begin(), base.vmatch.end());
  out.vmatch.resize(nv, kNoEdge);
  out.vlevel.assign(base.vlevel.begin(), base.vlevel.end());
  out.vlevel.resize(nv, kUnmatchedLevel);
  for (Vertex v : vhot_.changed()) {
    out.vmatch[v] = vhot_.matched(v);
    out.vlevel[v] = vhot_.level(v);
  }

  // Matched edges: an id absent from the edge log kept its matched status
  // and its identity (so its endpoints) since the base capture, and keeps
  // base's CSR row. A logged id is re-decided from the live flags, its
  // endpoints taken from the registry — right even for an id retired and
  // reused since. Runs of kept rows copy in bulk between logged ids.
  auto& changed = view_base_.changed_edges;
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  out.medges.clear();
  out.moffset.clear();
  out.mendpoints.clear();
  out.medges.reserve(base.medges.size() + changed.size());
  out.moffset.reserve(base.medges.size() + changed.size() + 1);
  out.mendpoints.reserve(base.mendpoints.size() +
                         changed.size() * reg_.max_rank());
  const auto copy_rows = [&](size_t from, size_t to) {
    if (from == to) return;
    out.medges.insert(out.medges.end(), base.medges.begin() + from,
                      base.medges.begin() + to);
    // Row starts shift by a constant (uint32 wrap-around is exact here).
    const uint32_t shift =
        static_cast<uint32_t>(out.mendpoints.size()) - base.moffset[from];
    for (size_t i = from; i < to; ++i) {
      out.moffset.push_back(base.moffset[i] + shift);
    }
    out.mendpoints.insert(out.mendpoints.end(),
                          base.mendpoints.begin() + base.moffset[from],
                          base.mendpoints.begin() + base.moffset[to]);
  };
  size_t next = 0;  // first base row not yet copied or dropped
  for (const EdgeId e : changed) {
    const size_t at = static_cast<size_t>(
        std::lower_bound(base.medges.begin() + next, base.medges.end(), e) -
        base.medges.begin());
    copy_rows(next, at);
    next = at + (at < base.medges.size() && base.medges[at] == e);
    if (is_matched(e)) {
      const auto eps = reg_.endpoints(e);
      out.medges.push_back(e);
      out.moffset.push_back(static_cast<uint32_t>(out.mendpoints.size()));
      out.mendpoints.insert(out.mendpoints.end(), eps.begin(), eps.end());
    }
  }
  copy_rows(next, base.medges.size());
  out.moffset.push_back(static_cast<uint32_t>(out.mendpoints.size()));
  PDMM_DASSERT(out.medges.size() == matching_size_);
}

void DynamicMatcher::build_view_full(MatchView& view) const {
  view.epoch = batch_counter_;
  view.max_rank = reg_.max_rank();

  // Per-vertex arrays: the SoA lanes are exactly the view's layout, so the
  // fill is two bulk copies. assign() on an already-capacious recycled
  // view reuses its allocation.
  const auto levels = vhot_.levels();
  const auto matched = vhot_.matched_edges();
  view.vmatch.assign(matched.begin(), matched.end());
  view.vlevel.assign(levels.begin(), levels.end());

  // Matched edges (ascending, from matching()) with their endpoints packed
  // CSR-style so the view owns every byte a query touches.
  view.medges.clear();
  view.medges.reserve(matching_size_);
  for (EdgeId e = 0; e < eflags_.size(); ++e) {
    if (eflags_[e] & kMatched) view.medges.push_back(e);
  }
  view.moffset.resize(view.medges.size() + 1);
  size_t total = 0;
  for (size_t i = 0; i < view.medges.size(); ++i) {
    view.moffset[i] = static_cast<uint32_t>(total);
    total += reg_.rank(view.medges[i]);
  }
  view.moffset[view.medges.size()] = static_cast<uint32_t>(total);
  view.mendpoints.resize(total);
  parallel_for(pool_, view.medges.size(), [&](size_t i) {
    const auto eps = reg_.endpoints(view.medges[i]);
    std::copy(eps.begin(), eps.end(),
              view.mendpoints.begin() + view.moffset[i]);
  });
}

}  // namespace pdmm
