// grand-random-settle and its sub-procedures (§3.3.2 Step 2), plus the
// sequential random-settle used both as a whp-cap fallback and by the
// sequential baseline's analysis experiments.
#include <algorithm>

#include "core/matcher.h"
#include "parallel/pack.h"
#include "parallel/parallel_for.h"

namespace pdmm {

uint64_t DynamicMatcher::settle_rng_stream() const {
  return hash_mix(cfg_.seed, batch_counter_, settle_counter_);
}

// Recomputes B (keep v with l(v) < l and o~(v,l) >= alpha^l / 2) and
// E' = union of O~(v, l) over B. E' only ever shrinks during a settle
// (edges get lifted, temp-deleted, kicked, or re-leveled upward), so the
// h-choices drawn at settle start stay valid.
//
// That shrink-only property is also why E' refreshes as a FILTER of the
// previous E' instead of a gather + dedupe rebuild: every level move
// inside a settle is a rise to l, so no edge ever newly enters any
// O~(v, l) — membership can only be lost. An edge e of the
// old E' survives iff it would be re-gathered: e is still in the
// structures with elevel < l (an endpoint of e owns it or holds it in an
// A(·, l') with l' < l) and some endpoint sits in the refreshed B. The
// membership tests: elevel_[e] >= l catches lifted and riser-captured
// edges, the kTempDeleted flag catches adoptions, and the kicked_flag lane
// catches this iteration's kicked matched edges — those left the
// structures but keep their stale elevel_/eowner_, which is exactly why
// the caller must flag them (kicks from earlier iterations were filtered
// out when they happened, and E' only shrinks).
void DynamicMatcher::refresh_settle_sets(Level l, std::vector<Vertex>& b,
                                         std::vector<EdgeId>& e_prime) {
  const uint64_t keep_threshold = scheme_.rise_threshold(l) / 2;
  auto& kept = scratch_.settle_kept;
  kept.clear();
  kept.reserve(b.size());
  for (Vertex v : b) {
    if (vhot_.level(v) < l && o_tilde(v, l) >= keep_threshold)
      kept.push_back(v);
  }
  b.swap(kept);

  auto& in_b = vertex_flags();
  for (Vertex v : b) in_b[v] = 1;
  const auto& kicked = scratch_.kicked_flag;
  auto& out = scratch_.settle_eprime_buf;
  pack_values_into(
      pool_, e_prime,
      [&](size_t i) {
        const EdgeId e = e_prime[i];
        if (elevel_[e] >= l) return false;            // lifted / captured
        if (eflags_[e] & kTempDeleted) return false;  // adopted into a D set
        if (kicked[e]) return false;                  // stale elevel_
        for (Vertex u : reg_.endpoints(e)) {
          if (in_b[u]) return true;
        }
        return false;
      },
      out, scratch_.pack_flags);
  e_prime.swap(out);
  for (Vertex v : b) in_b[v] = 0;
  cost_.round(b.size() + e_prime.size());
}

void DynamicMatcher::kick_conflicting_matches(EdgeId keep,
                                              std::vector<EdgeId>& kicked) {
  for (Vertex u : reg_.endpoints(keep)) {
    const EdgeId m = vhot_.matched(u);
    if (m == kNoEdge || m == keep) continue;
    // Kicking clears `matched` on every endpoint of m, so a second
    // encounter of m (via another endpoint, or another lifted edge in the
    // same batch) falls through the kNoEdge check — no dedup set needed.
    set_unmatched(m, /*natural=*/false);
    remove_edge_from_structures(m);
    dissolve_d(m);
    reinsert_queue_.push_back(m);
    ++stats_.edges_kicked;
    kicked.push_back(m);
  }
}

void DynamicMatcher::lift_edge(EdgeId e, Level l) {
  if (eflags_[e] & kMatched) {
    // e was already in M (it can sit in E' as the matched edge of a rising
    // vertex): it merely rises to level l. The level-l accounting period
    // starts fresh; the physical matching membership continues.
    if (cfg_.collect_epoch_stats) {
      epochs_.ended_induced[static_cast<size_t>(elevel_[e])]++;
      epochs_.d_budget_consumed[static_cast<size_t>(elevel_[e])] +=
          epoch_d_deleted_[e];
      epochs_.created[static_cast<size_t>(l)]++;
    }
    epoch_d_deleted_[e] = 0;
  } else {
    set_matched(e, l);
  }
  ++stats_.edges_lifted;
}

void DynamicMatcher::grand_random_settle(Level l) {
  auto& b = scratch_.settle_b;
  b.assign(s_[static_cast<size_t>(l)].items().begin(),
           s_[static_cast<size_t>(l)].items().end());
  if (b.empty()) return;
  ++settle_counter_;
  ++stats_.settles;

  // h(e): one uniformly random endpoint per edge, drawn once per settle.
  // When e is lifted into M, every surviving edge whose h points into e is
  // adopted into D(e) (§3.3.2). Stored in the per-edge-id settle_h lane;
  // E' only shrinks, so the initial E' names every entry to reset at the
  // end. The per-iteration lanes are sized here too: no edge id or vertex
  // is created during a settle.
  auto& h = scratch_.settle_h;
  if (h.size() < reg_.id_bound()) h.resize(reg_.id_bound(), kNoVertex);
  if (scratch_.kicked_flag.size() < reg_.id_bound())
    scratch_.kicked_flag.resize(reg_.id_bound(), 0);
  if (scratch_.marked_deg.size() < verts_.size())
    scratch_.marked_deg.resize(verts_.size(), 0);
  if (scratch_.lifted_at.size() < verts_.size())
    scratch_.lifted_at.resize(verts_.size(), kNoEdge);

  // Initial E' from the full B = S_l (no threshold filtering yet; every
  // member has o~ >= alpha^l by the S_l definition). An edge owned or held
  // by two members of B is gathered twice; the h lane keeps its first
  // occurrence, which draws h(e).
  auto& e_prime = scratch_.settle_eprime;
  e_prime.clear();
  for (Vertex v : b) {
    PDMM_DASSERT(vhot_.level(v) < l);
    append_o_tilde(v, l, e_prime);
  }
  const auto h_draws = rng_.stream(hash_mix(settle_rng_stream(), 0xc401ceULL));
  size_t kept = 0;
  for (const EdgeId e : e_prime) {
    if (h[e] != kNoVertex) continue;
    const auto eps = reg_.endpoints(e);
    h[e] = eps[h_draws.below(e, eps.size())];
    e_prime[kept++] = e;
  }
  e_prime.resize(kept);
  cost_.round(b.size() + e_prime.size());
  scratch_.settle_h_set.assign(e_prime.begin(), e_prime.end());
  cost_.round(e_prime.size());

  const uint32_t phases = 2 * log2_ceil(scheme_.alpha());
  uint32_t repeats = 0;
  while (!b.empty()) {
    if (repeats++ >= cfg_.max_settle_repeats) {
      ++stats_.settle_fallbacks;
      // The fallback settles vertices one at a time and re-enters the
      // scratch-using helpers, so it takes a stable copy of the residue.
      sequential_settle_fallback(l, b);
      break;
    }
    ++stats_.subsettles;
    for (uint32_t i = 1; i <= phases && !b.empty(); ++i) {
      const uint32_t iters = std::max<uint32_t>(
          1, cfg_.subsettle_iter_factor *
                 log2_ceil(std::max<size_t>(e_prime.size(), 2)));
      for (uint32_t it = 0; it < iters && !b.empty(); ++it) {
        ++stats_.subsubsettles;
        const uint64_t salt = hash_mix(repeats, i, it);
        subsubsettle(l, i, salt, b, e_prime);
      }
    }
  }
  for (EdgeId e : scratch_.settle_h_set) h[e] = kNoVertex;
}

size_t DynamicMatcher::subsubsettle(Level l, uint32_t phase_i,
                                    uint64_t iter_salt,
                                    std::vector<Vertex>& b,
                                    std::vector<EdgeId>& e_prime) {
  // Step 1: mark each edge of E' with probability p = 2^i / alpha^(l+2).
  const double p = std::min(
      1.0, static_cast<double>(uint64_t{1} << std::min(phase_i, 62u)) /
               static_cast<double>(scheme_.alpha_pow(l + 2)));
  const auto marks =
      rng_.stream(hash_mix(settle_rng_stream(), iter_salt, 0x3a4bULL));
  auto& marked = scratch_.settle_marked;
  pack_values_into(
      pool_, e_prime, [&](size_t i) { return marks.uniform(e_prime[i]) < p; },
      marked, scratch_.pack_flags);
  cost_.round(e_prime.size());
  if (marked.empty()) return 0;

  // Step 2: lift marked edges with no incident marked edge (within E').
  auto& marked_deg = scratch_.marked_deg;  // #marked edges per vertex
  for (EdgeId e : marked) {
    for (Vertex u : reg_.endpoints(e)) ++marked_deg[u];
  }
  auto& lifted = scratch_.settle_lifted;
  pack_values_into(
      pool_, marked,
      [&](size_t i) {
        for (Vertex u : reg_.endpoints(marked[i])) {
          if (marked_deg[u] != 1) return false;
        }
        return true;
      },
      lifted, scratch_.pack_flags);
  for (EdgeId e : marked) {
    for (Vertex u : reg_.endpoints(e)) marked_deg[u] = 0;
  }
  cost_.round(marked.size() * reg_.max_rank());
  if (lifted.empty()) return 0;

  // Kick the matched edges of endpoints being absorbed into lifted edges.
  // Lifted edges are pairwise non-incident, so each vertex belongs to at
  // most one of them.
  auto& lifted_at = scratch_.lifted_at;  // lifted edge covering a vertex
  auto& kicked = scratch_.settle_kicked;
  auto& kicked_flag = scratch_.kicked_flag;
  kicked.clear();
  for (EdgeId e : lifted) {
    for (Vertex u : reg_.endpoints(e)) {
      PDMM_DASSERT(lifted_at[u] == kNoEdge);
      lifted_at[u] = e;
    }
    kick_conflicting_matches(e, kicked);
  }
  for (EdgeId m : kicked) kicked_flag[m] = 1;
  cost_.round(lifted.size() * reg_.max_rank() + kicked.size());

  // Add lifted edges to M at level l and raise their endpoints.
  auto& moves = scratch_.moves;
  moves.clear();
  for (EdgeId e : lifted) {
    lift_edge(e, l);
    for (Vertex u : reg_.endpoints(e)) moves.push_back({u, l});
  }
  apply_level_moves(moves);

  // Adopt surviving E' edges whose h-choice landed inside a lifted edge
  // into that edge's D set (temporarily deleting them). The structural
  // removals batch through the grouped pipeline; the D-set bookkeeping is
  // serial and cheap.
  const auto& h = scratch_.settle_h;
  auto& adopted = scratch_.adopted;
  adopted.clear();
  for (EdgeId eprime_edge : e_prime) {
    if (eflags_[eprime_edge] & kMatched) continue;  // lifted or still in M
    if (kicked_flag[eprime_edge]) continue;          // already out + queued
    PDMM_DASSERT(!(eflags_[eprime_edge] & kTempDeleted));
    PDMM_DASSERT(h[eprime_edge] != kNoVertex);
    if (lifted_at[h[eprime_edge]] == kNoEdge) continue;
    adopted.push_back(eprime_edge);
  }
  if (!adopted.empty()) {
    remove_edges_from_structures(adopted);
    for (EdgeId f : adopted) temp_delete_bookkeep(f, lifted_at[h[f]]);
  }
  cost_.round(e_prime.size());

  refresh_settle_sets(l, b, e_prime);
  for (EdgeId e : lifted) {
    for (Vertex u : reg_.endpoints(e)) lifted_at[u] = kNoEdge;
  }
  for (EdgeId m : kicked) kicked_flag[m] = 0;
  return lifted.size();
}

void DynamicMatcher::sequential_settle_fallback(Level l,
                                                std::vector<Vertex> b) {
  // Deterministic safety net for the (never observed, probability
  // poly(1/N)) event that the whp repeat budget runs out: settle the
  // residue one vertex at a time, exactly like the sequential Step 2 of
  // §3.3.2. Correct, merely not polylog-depth. Each settle draws from the
  // next settle_counter_ stream, so the walk goes in vertex-id order: B's
  // member order is not state.
  std::sort(b.begin(), b.end());
  const uint64_t keep_threshold = scheme_.rise_threshold(l) / 2;
  for (Vertex v : b) {
    if (vhot_.level(v) < l && o_tilde(v, l) >= keep_threshold) {
      random_settle_single(v, l);
    }
  }
}

void DynamicMatcher::random_settle_single(Vertex v, Level l) {
  // random-settle(v, l) of §3.3.2 (sequential setting): v rises to l and
  // takes ownership of O~(v, l); one of those edges is sampled uniformly
  // and matched at level l, and the rest of O~(v, l) is temporarily
  // deleted into D(e).
  //
  // Ordering mirrors the parallel lift path (subsubsettle): matched edges
  // of the sampled edge's endpoints — including v's own matched edge when
  // v deserts it — are kicked and removed from the structures *before* any
  // level move, and v rises together with the other endpoints of e in one
  // batch. Every apply_level_moves call therefore sees each surviving
  // matched edge with all endpoints moving to the same level; raising v
  // alone first (while still matched below l) breaks exactly that.
  std::vector<EdgeId> candidates = collect_o_tilde(v, l);
  PDMM_ASSERT(!candidates.empty());
  std::sort(candidates.begin(), candidates.end());
  ++settle_counter_;
  const EdgeId e = candidates[rng_.below(settle_rng_stream(),
                                         0x5e771eULL + v,
                                         candidates.size())];

  std::vector<EdgeId> kicked;
  kick_conflicting_matches(e, kicked);
  lift_edge(e, l);

  auto& moves = scratch_.moves;
  moves.clear();
  for (Vertex u : reg_.endpoints(e)) moves.push_back({u, l});
  apply_level_moves(moves);

  // D(e) <- the rest of O~(v, l). Kicked edges are already out of the
  // structures (queued for reinsertion), so they must not be re-deleted.
  for (EdgeId f : candidates) {
    if (f == e || (eflags_[f] & kMatched)) continue;
    if (std::find(kicked.begin(), kicked.end(), f) != kicked.end()) continue;
    temp_delete(f, e);
  }
  cost_.round(candidates.size());
}

}  // namespace pdmm
