#include "core/checker.h"

#include <algorithm>

#include "core/matcher.h"

namespace pdmm {

void MatchingChecker::check_maximal_matching(const HyperedgeRegistry& reg,
                                             std::span<const EdgeId> matched) {
  std::vector<uint8_t> vertex_matched(reg.vertex_bound(), 0);
  for (EdgeId e : matched) {
    PDMM_ASSERT_MSG(reg.alive(e), "matched edge not alive");
    for (Vertex u : reg.endpoints(e)) {
      PDMM_ASSERT_MSG(!vertex_matched[u], "matching not disjoint");
      vertex_matched[u] = 1;
    }
  }
  for (EdgeId e : reg.all_edges()) {
    bool covered = false;
    for (Vertex u : reg.endpoints(e)) covered |= vertex_matched[u] != 0;
    PDMM_ASSERT_MSG(covered, "matching not maximal: uncovered edge");
  }
}

void MatchingChecker::check(const DynamicMatcher& m) {
  const HyperedgeRegistry& reg = m.reg_;
  const Level top = m.scheme_.top_level();

  // --- SoA layout integrity: the hot lanes (core/vertex_soa.h) must cover
  // exactly the cold per-vertex structs, lane sizes in lockstep. Every hot
  // read below goes through m.vhot_, so the per-vertex/per-edge walks
  // cross-validate the hot scalars against the cold containers throughout.
  PDMM_ASSERT_MSG(m.vhot_.size() == m.verts_.size(),
                  "SoA hot arrays out of lockstep with cold vertex structs");
  PDMM_ASSERT(m.vhot_.level_lane_size() == m.verts_.size());
  PDMM_ASSERT(m.vhot_.matched_lane_size() == m.verts_.size());
  PDMM_ASSERT(m.vhot_.s_mask_lane_size() == m.verts_.size());
  PDMM_ASSERT(m.vhot_.changed_lane_size() == m.verts_.size());

  // --- per-vertex invariants ---
  for (Vertex v = 0; v < m.verts_.size(); ++v) {
    const auto& vs = m.verts_[v];
    const Level vl = m.vhot_.level(v);
    const EdgeId vm = m.vhot_.matched(v);
    PDMM_ASSERT(vl >= kUnmatchedLevel && vl <= top);
    // Invariant 3.1(1): level -1 iff unmatched (between batches).
    PDMM_ASSERT_MSG((vl == kUnmatchedLevel) == (vm == kNoEdge),
                    "vertex level -1 must coincide with being unmatched");
    if (vm != kNoEdge) {
      PDMM_ASSERT(reg.alive(vm));
      PDMM_ASSERT(m.eflags_[vm] & DynamicMatcher::kMatched);
      const auto eps = reg.endpoints(vm);
      PDMM_ASSERT_MSG(std::find(eps.begin(), eps.end(), v) != eps.end(),
                      "M(v) must contain v");
    }
    // O(v): v owns exactly the edges claiming v as owner.
    for (EdgeId e : vs.owned.items()) {
      PDMM_ASSERT(reg.alive(e));
      PDMM_ASSERT_MSG(m.eowner_[e] == v, "owned-set / owner mismatch");
      PDMM_ASSERT_MSG(m.elevel_[e] == vl,
                      "owned edge level must equal owner level");
    }
    // A(v, l): correct level labels, only levels >= l(v), never owner.
    for (const auto& ls : vs.a_sets) {
      PDMM_ASSERT_MSG(!ls.set.empty(), "empty A(v,l) sets must be pruned");
      PDMM_ASSERT_MSG(ls.level >= std::max(vl, Level{0}) &&
                          ls.level <= top,
                      "A(v,l) exists only for l(v) <= l <= L");
      for (size_t i = 0; i < ls.set.size(); ++i) {
        const EdgeId e = ls.set.at(i);
        PDMM_ASSERT(reg.alive(e));
        PDMM_ASSERT_MSG(m.elevel_[e] == ls.level, "A(v,l) level mismatch");
        PDMM_ASSERT_MSG(m.eowner_[e] != v, "A(v,l) must exclude owned edges");
      }
    }
  }

  // --- per-edge invariants ---
  size_t matched_count = 0;
  for (EdgeId e : reg.all_edges()) {
    const auto eps = reg.endpoints(e);
    const uint8_t flags = m.eflags_[e];
    if (flags & DynamicMatcher::kTempDeleted) {
      // Invariant 3.2 + exclusivity: lives in exactly D(resp) and nowhere
      // else; resp is matched and shares a vertex with e.
      PDMM_ASSERT(!(flags & DynamicMatcher::kMatched));
      const EdgeId resp = m.eresp_[e];
      PDMM_ASSERT(resp != kNoEdge && reg.alive(resp));
      PDMM_ASSERT(m.eflags_[resp] & DynamicMatcher::kMatched);
      PDMM_ASSERT(m.edge_d_[resp] && m.edge_d_[resp]->contains(e));
      bool incident = false;
      for (Vertex u : eps) {
        const auto reps = reg.endpoints(resp);
        incident |= std::find(reps.begin(), reps.end(), u) != reps.end();
      }
      PDMM_ASSERT_MSG(incident,
                      "temp-deleted edge must touch its responsible edge");
      for (Vertex u : eps) {
        PDMM_ASSERT_MSG(!m.verts_[u].owned.contains(e),
                        "temp-deleted edge present in O(v)");
        for (const auto& ls : m.verts_[u].a_sets)
          PDMM_ASSERT_MSG(!ls.set.contains(e),
                          "temp-deleted edge present in A(v,l)");
      }
      continue;
    }

    // Structured edge: owner is a maximum-level endpoint, level = owner
    // level = max endpoint level; membership in the endpoint sets is exact.
    const Vertex owner = m.eowner_[e];
    const Level lvl = m.elevel_[e];
    PDMM_ASSERT(lvl >= 0 && lvl <= top);
    PDMM_ASSERT(std::find(eps.begin(), eps.end(), owner) != eps.end());
    Level maxl = kUnmatchedLevel;
    for (Vertex u : eps) maxl = std::max(maxl, m.vhot_.level(u));
    PDMM_ASSERT_MSG(m.vhot_.level(owner) == maxl,
                    "owner must be a max-level endpoint");
    PDMM_ASSERT_MSG(lvl == maxl, "edge level must equal max endpoint level");
    PDMM_ASSERT(m.verts_[owner].owned.contains(e));
    for (Vertex u : eps) {
      if (u == owner) continue;
      const IndexedSet* a = m.verts_[u].find_a(lvl);
      PDMM_ASSERT_MSG(a && a->contains(e),
                      "edge missing from A(u, l(e)) of a non-owner endpoint");
    }

    if (flags & DynamicMatcher::kMatched) {
      ++matched_count;
      // Invariant 3.1(2): all endpoints at the edge's level, matched to it.
      for (Vertex u : eps) {
        PDMM_ASSERT_MSG(m.vhot_.level(u) == lvl,
                        "matched edge endpoint at wrong level");
        PDMM_ASSERT_MSG(m.vhot_.matched(u) == e,
                        "matched edge endpoint not matched to it");
      }
    } else {
      // Maximality: some endpoint is matched.
      bool covered = false;
      for (Vertex u : eps) covered |= m.vhot_.matched(u) != kNoEdge;
      PDMM_ASSERT_MSG(covered, "maximality violated: free edge left");
    }
  }
  PDMM_ASSERT(matched_count == m.matching_size_);

  // --- D sets point back correctly ---
  for (EdgeId e = 0; e < m.edge_d_.size(); ++e) {
    const IndexedSet* d = m.edge_d_[e].get();
    if (!d || d->empty()) continue;
    PDMM_ASSERT_MSG(reg.alive(e) && (m.eflags_[e] & DynamicMatcher::kMatched),
                    "non-empty D(e) requires e matched");
    for (size_t i = 0; i < d->size(); ++i) {
      const EdgeId f = d->at(i);
      PDMM_ASSERT(reg.alive(f));
      PDMM_ASSERT(m.eflags_[f] & DynamicMatcher::kTempDeleted);
      PDMM_ASSERT(m.eresp_[f] == e);
    }
  }

  // --- S_l exactness; undecided sets and reinsert queue empty at rest ---
  for (Level l = 0; l <= top; ++l) {
    const auto& s = m.s_[static_cast<size_t>(l)];
    for (size_t i = 0; i < s.size(); ++i) {
      const Vertex v = s.at(i);
      PDMM_ASSERT_MSG(m.vhot_.level(v) < l &&
                          m.o_tilde(v, l) >= m.scheme_.rise_threshold(l),
                      "S_l contains a non-member");
    }
  }
  for (Vertex v = 0; v < m.verts_.size(); ++v) {
    const auto& vs = m.verts_[v];
    if (vs.owned.empty() && vs.a_sets.empty()) {
      PDMM_ASSERT_MSG(m.vhot_.s_mask(v) == 0,
                      "stale S_l bitmask on a structure-free vertex");
      continue;
    }
    for (Level l = 0; l <= top; ++l) {
      const bool member = m.vhot_.level(v) < l &&
                          m.o_tilde(v, l) >= m.scheme_.rise_threshold(l);
      PDMM_ASSERT_MSG(m.s_[static_cast<size_t>(l)].contains(v) == member,
                      "S_l membership out of sync");
      PDMM_ASSERT_MSG(((m.vhot_.s_mask(v) >> l) & 1) == (member ? 1u : 0u),
                      "cached S_l bitmask out of sync with membership");
    }
  }
  PDMM_ASSERT(m.total_undecided() == 0);
  PDMM_ASSERT(m.reinsert_queue_.empty());

  // Invariant 3.5(2) between batches holds in eager mode (unless a drain
  // cap cut the last sweep short).
  if (m.cfg_.settle_after_insertions && m.stats_.eager_cap_hits == 0) {
    for (Level l = 0; l <= top; ++l) {
      PDMM_ASSERT_MSG(m.s_[static_cast<size_t>(l)].empty(),
                      "Invariant 3.5(2): rising set must be empty");
    }
  }
}

}  // namespace pdmm
