// MatchView: an immutable, self-contained snapshot of the matching state a
// DynamicMatcher held at the end of one batch.
//
// The view is the unit of the concurrent read path (see view_channel.h):
// the updater builds one after every update() and publishes it, and any
// number of reader threads answer queries against it while the updater
// already runs the next batch. Everything a query needs is packed into the
// view itself — per-vertex matched edge and level, the sorted matched-edge
// list, and the endpoints of every matched edge in one CSR block — so
// readers never touch live matcher structures and every query is wait-free
// (plain loads into immutable arrays).
//
// Views are consistent, not fresh: all queries against one view answer as
// of the same batch epoch (the post-state of batch `epoch`), and a reader
// holding a view while the updater publishes newer ones simply observes a
// stale-but-consistent matching. validate() checks the internal
// cross-structure consistency (vertex <-> edge match pointers agree,
// levels agree, the edge list is sorted-unique) and is what the serve
// tests run on every acquired view.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/types.h"
#include "util/assert.h"

namespace pdmm {

struct MatchView {
  // Batch counter of the update() whose post-state this view captures
  // (0 for a view taken before any update). Strictly increasing along the
  // publication sequence of one matcher.
  uint64_t epoch = 0;
  uint32_t max_rank = 0;

  // Per-vertex matched edge (kNoEdge when unmatched) and level, indexed by
  // vertex id; vertices beyond the graph's vertex bound answer as
  // unmatched.
  std::vector<EdgeId> vmatch;
  std::vector<Level> vlevel;

  // Matched edges, ascending, with their endpoints packed CSR-style:
  // endpoints of medges[i] are mendpoints[moffset[i] .. moffset[i + 1]).
  std::vector<EdgeId> medges;
  std::vector<uint32_t> moffset;
  std::vector<Vertex> mendpoints;

  // ---- queries (wait-free; safe from any thread for the view's lifetime) --
  size_t matching_size() const { return medges.size(); }
  size_t vertex_bound() const { return vmatch.size(); }

  bool is_matched(EdgeId e) const {
    return std::binary_search(medges.begin(), medges.end(), e);
  }
  EdgeId matched_edge_of(Vertex v) const {
    return v < vmatch.size() ? vmatch[v] : kNoEdge;
  }
  Level level_of(Vertex v) const {
    return v < vlevel.size() ? vlevel[v] : kUnmatchedLevel;
  }
  std::span<const EdgeId> matching() const { return medges; }

  // Endpoints of a matched edge; empty span when e is not matched here.
  std::span<const Vertex> endpoints_of_matched(EdgeId e) const {
    const auto it = std::lower_bound(medges.begin(), medges.end(), e);
    if (it == medges.end() || *it != e) return {};
    const size_t i = static_cast<size_t>(it - medges.begin());
    return {mendpoints.data() + moffset[i], moffset[i + 1] - moffset[i]};
  }

  // Internal consistency check (O(view)): shape of the CSR block, sorted-
  // unique edge list, and the vertex <-> edge match pointers and levels
  // agreeing in both directions. Returns false and fills *error (when
  // given) with the first violation. Maximality cannot be checked from the
  // view alone — it needs the live edge set of the same epoch, which the
  // serve tests capture separately.
  bool validate(std::string* error = nullptr) const;

  // Field-for-field equality (the delta capture's check against the full
  // build).
  friend bool operator==(const MatchView&, const MatchView&) = default;
};

}  // namespace pdmm
