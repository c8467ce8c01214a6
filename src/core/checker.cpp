#include "core/checker.h"

#include <algorithm>
#include <sstream>

#include "core/matcher.h"

namespace pdmm {

namespace {

// A violation message: the parts (text and ids) concatenated.
template <class... Parts>
std::string describe(const Parts&... parts) {
  std::ostringstream os;
  (os << ... << parts);
  return os.str();
}

bool contains_vertex(std::span<const Vertex> eps, Vertex v) {
  return std::find(eps.begin(), eps.end(), v) != eps.end();
}

}  // namespace

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

// The state may be untrusted (a freshly parsed snapshot), so no id indexes
// anything before it is validated: edge ids by reg.alive(), owners by
// endpoint membership, vertex ids against verts_.size(), container
// positions against the container's size, levels against [-1, L]. The
// per-edge lanes are taken to cover the registry's id range, as the loader
// and grow_edges() size them; the member position lanes and the count lane
// are checked against the bounds first.
std::string MatchingChecker::violation(const DynamicMatcher& m) {
  using DM = DynamicMatcher;
  const HyperedgeRegistry& reg = m.reg_;
  const Level top = m.scheme_.top_level();
  const size_t nv = m.verts_.size();
  const size_t r = reg.max_rank();

  // A container holds e at the position its lane entry names.
  const auto at = [](const auto* c, uint32_t pos, EdgeId e) {
    return c != nullptr && pos < c->size() && (*c)[pos] == e;
  };
  if (m.eslot_.size() < reg.id_bound() * r ||
      m.dslot_.size() < reg.id_bound() ||
      m.undecided_pos_.size() != nv) {
    return "member position lanes do not cover the id and vertex bounds";
  }
  const size_t stride = m.count_stride();
  if (m.vcnt_.size() != nv * stride) {
    return describe("count lane holds ", m.vcnt_.size(), " entries, not ",
                    nv, " vertices x ", stride);
  }

  // --- SoA layout integrity: the hot lanes (core/vertex_soa.h) must cover
  // exactly the cold per-vertex structs, lane sizes in lockstep, and every
  // endpoint must index them. Every hot read below goes through m.vhot_,
  // so the per-vertex/per-edge walks cross-validate the hot scalars
  // against the cold containers throughout.
  if (m.vhot_.size() != nv || m.vhot_.level_lane_size() != nv ||
      m.vhot_.matched_lane_size() != nv ||
      m.vhot_.s_mask_lane_size() != nv ||
      m.vhot_.changed_lane_size() != nv) {
    return "SoA hot arrays out of lockstep with cold vertex structs";
  }
  if (nv < reg.vertex_bound()) {
    return describe("vertex structs cover ", nv, " vertices but edges name ",
                    reg.vertex_bound());
  }

  // --- per-vertex invariants; also totals the O(v) / A(v,l) memberships,
  // which the per-edge walk must account for one by one ---
  size_t have_owned = 0, have_a = 0;
  std::vector<uint32_t> recount(stride);
  for (Vertex v = 0; v < nv; ++v) {
    const auto& adj = m.verts_[v].adj;
    const Level vl = m.vhot_.level(v);
    const EdgeId vm = m.vhot_.matched(v);
    if (vl < kUnmatchedLevel || vl > top) {
      return describe("vertex ", v, " level ", vl, " outside [-1, L]");
    }
    // Invariant 3.1(1): level -1 iff unmatched (between batches).
    if ((vl == kUnmatchedLevel) != (vm == kNoEdge)) {
      return describe("vertex ", v,
                      ": level -1 must coincide with being unmatched");
    }
    if (vm != kNoEdge) {
      if (!reg.alive(vm) || !(m.eflags_[vm] & DM::kMatched)) {
        return describe("vertex ", v, " matched to edge ", vm,
                        ", which is not an alive matched edge");
      }
      if (!contains_vertex(reg.endpoints(vm), v)) {
        return describe("vertex ", v, " matched to edge ", vm,
                        ", which does not contain it");
      }
    }
    // adj(v) holds structured edges only: those v owns make O(v) and sit
    // at v's level; the others make A(v, l(e)), for l(v) <= l(e) <= L.
    // Their per-set counts must read as v's count lane.
    std::fill(recount.begin(), recount.end(), 0u);
    for (EdgeId e : adj) {
      if (!reg.alive(e) || (m.eflags_[e] & DM::kTempDeleted)) {
        return describe("adj(", v, ") contains edge ", e,
                        ", which is not a structured edge");
      }
      const Level el = m.elevel_[e];
      if (m.eowner_[e] == v) {
        if (el != vl) {
          return describe("O(", v, ") contains edge ", e,
                          ", which it does not own at its level");
        }
        ++have_owned;
        ++recount[DM::bucket(true, el)];
      } else {
        if (el < std::max(vl, Level{0}) || el > top) {
          return describe("A(", v, ", ", el, ") contains edge ", e,
                          ", outside [max(l(v), 0), L]");
        }
        ++have_a;
        ++recount[DM::bucket(false, el)];
      }
    }
    const uint32_t* cnt = m.counts(v);
    for (size_t b = 0; b < stride; ++b) {
      if (cnt[b] != recount[b]) {
        return describe("vertex ", v, " count lane bucket ", b, " reads ",
                        cnt[b], " but adj(v) holds ", recount[b],
                        " such edges");
      }
    }
  }

  // --- per-edge invariants ---
  size_t matched_count = 0, temp_deleted = 0, want_owned = 0, want_a = 0;
  for (EdgeId e : reg.all_edges()) {
    const auto eps = reg.endpoints(e);
    const uint8_t flags = m.eflags_[e];
    if (flags & DM::kTempDeleted) {
      // Invariant 3.2: lives in D(resp), resp is matched and shares a
      // vertex with e. (The per-vertex walk above keeps temp-deleted edges
      // out of every O(v) and A(v,l); the D walk below out of other D sets.)
      ++temp_deleted;
      if (flags & DM::kMatched) {
        return describe("edge ", e, " flagged both matched and temp-deleted");
      }
      const EdgeId resp = m.eresp_[e];
      if (resp == kNoEdge || !reg.alive(resp) ||
          !(m.eflags_[resp] & DM::kMatched)) {
        return describe("temp-deleted edge ", e,
                        " has no alive matched responsible edge");
      }
      if (!at(m.edge_d_[resp].get(), m.dslot_[e], e)) {
        return describe("temp-deleted edge ", e, " missing from D(", resp,
                        ") at its recorded position ", m.dslot_[e]);
      }
      const auto reps = reg.endpoints(resp);
      if (std::none_of(eps.begin(), eps.end(),
                       [&](Vertex u) { return contains_vertex(reps, u); })) {
        return describe("temp-deleted edge ", e,
                        " must touch its responsible edge ", resp);
      }
      continue;
    }

    // Structured edge: owner is a maximum-level endpoint, level = owner
    // level = max endpoint level; membership in the endpoint sets is exact.
    const Vertex owner = m.eowner_[e];
    const Level lvl = m.elevel_[e];
    if (lvl < 0 || lvl > top) {
      return describe("structured edge ", e, " level ", lvl,
                      " outside [0, L]");
    }
    if (!contains_vertex(eps, owner)) {
      return describe("owner ", owner, " of edge ", e,
                      " is not one of its endpoints");
    }
    Level maxl = kUnmatchedLevel;
    for (Vertex u : eps) maxl = std::max(maxl, m.vhot_.level(u));
    if (m.vhot_.level(owner) != maxl) {
      return describe("owner ", owner, " of edge ", e,
                      " is not a max-level endpoint");
    }
    if (lvl != maxl) {
      return describe("edge ", e, " level ", lvl,
                      " differs from its max endpoint level ", maxl);
    }
    // Each endpoint's adj holds e where e's lane entry says.
    for (size_t j = 0; j < eps.size(); ++j) {
      const Vertex u = eps[j];
      const uint32_t pos = m.eslot_[e * r + j];
      if (!at(&m.verts_[u].adj, pos, e)) {
        return describe("edge ", e, " missing from adj(", u,
                        ") at its recorded position ", pos);
      }
      ++(u == owner ? want_owned : want_a);
    }

    if (flags & DM::kMatched) {
      ++matched_count;
      // Invariant 3.1(2): all endpoints at the edge's level, matched to it.
      for (Vertex u : eps) {
        if (m.vhot_.level(u) != lvl || m.vhot_.matched(u) != e) {
          return describe("matched edge ", e, " endpoint ", u,
                          " is not matched to it at level ", lvl);
        }
      }
    } else if (std::none_of(eps.begin(), eps.end(), [&](Vertex u) {
                 return m.vhot_.matched(u) != kNoEdge;
               })) {
      return describe("maximality violated: free edge ", e);
    }
  }
  if (matched_count != m.matching_size_) {
    return describe(matched_count, " matched edges but matching size ",
                    m.matching_size_);
  }
  // Every membership a structured edge requires was found above; equal
  // totals leave no room for stray entries.
  if (have_owned != want_owned || have_a != want_a) {
    return describe("O(v) / A(v,l) sets hold ", have_owned, " / ", have_a,
                    " entries but the structured edges account for ",
                    want_owned, " / ", want_a);
  }

  // --- D sets point back; with the containment checked per temp-deleted
  // edge above, equal counts make D-membership a bijection ---
  size_t d_members = 0;
  for (EdgeId e = 0; e < m.edge_d_.size(); ++e) {
    const DM::EdgeList* d = m.edge_d_[e].get();
    if (!d || d->empty()) continue;
    if (!reg.alive(e) || !(m.eflags_[e] & DM::kMatched)) {
      return describe("non-empty D(", e, ") requires edge ", e, " matched");
    }
    d_members += d->size();
    for (EdgeId f : *d) {
      if (!reg.alive(f) || !(m.eflags_[f] & DM::kTempDeleted) ||
          m.eresp_[f] != e) {
        return describe("D(", e, ") member ", f,
                        " is not temp-deleted under edge ", e);
      }
    }
  }
  if (d_members != temp_deleted) {
    return describe(d_members, " D(e) members but ", temp_deleted,
                    " temp-deleted edges");
  }

  // --- S_l exactness; undecided sets and reinsert queue empty at rest ---
  for (Level l = 0; l <= top; ++l) {
    const auto& s = m.s_[static_cast<size_t>(l)];
    for (size_t i = 0; i < s.size(); ++i) {
      const Vertex v = s.at(i);
      if (v >= nv || m.vhot_.level(v) >= l ||
          m.o_tilde(v, l) < m.scheme_.rise_threshold(l)) {
        return describe("S_", l, " contains non-member ", v);
      }
    }
  }
  for (Vertex v = 0; v < nv; ++v) {
    if (m.verts_[v].adj.empty()) {
      if (m.vhot_.s_mask(v) != 0) {
        return describe("stale S_l bitmask on structure-free vertex ", v);
      }
      continue;
    }
    for (Level l = 0; l <= top; ++l) {
      const bool member = m.vhot_.level(v) < l &&
                          m.o_tilde(v, l) >= m.scheme_.rise_threshold(l);
      if (m.s_[static_cast<size_t>(l)].contains(v) != member) {
        return describe("S_", l, " membership of vertex ", v,
                        " out of sync");
      }
      if (((m.vhot_.s_mask(v) >> l) & 1) != (member ? 1u : 0u)) {
        return describe("cached S_l bitmask of vertex ", v,
                        " out of sync at level ", l);
      }
    }
  }
  if (m.total_undecided() != 0) {
    return "undecided sets must be empty between batches";
  }
  for (Vertex v = 0; v < nv; ++v) {
    if (m.undecided_pos_[v] != DM::kNoSlot) {
      return describe("vertex ", v,
                      " has an undecided-set position between batches");
    }
  }
  if (!m.reinsert_queue_.empty()) {
    return "reinsert queue must be empty between batches";
  }
  return {};
}

void MatchingChecker::check(const DynamicMatcher& m) {
  const std::string why = violation(m);
  PDMM_ASSERT_MSG(why.empty(), why.c_str());

  // Invariant 3.5(2) between batches holds in eager mode (unless a drain
  // cap cut the last sweep short). violation() leaves it out: a snapshot
  // saved right after a capped drain legitimately carries a rising set,
  // and load() resets the eager_cap_hits counter that would excuse it.
  if (m.cfg_.settle_after_insertions && m.stats_.eager_cap_hits == 0) {
    for (const auto& s : m.s_) {
      PDMM_ASSERT_MSG(s.empty(), "Invariant 3.5(2): rising set must be empty");
    }
  }
}

}  // namespace pdmm
