// Independent correctness check of a final matching against the update
// generator's own mirror of the live edge set.
//
// Deliberately shares no code with MatchingChecker (which aborts and reads
// matcher internals): it sees only the matched edge ids and the matcher's
// public registry, and the mirror the generator kept while emitting the
// stream.
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/registry.h"

namespace perfbench {

// True when `matched` (edge ids of `g`) is a valid maximal matching of the
// live edge set `mirror`, and `g` holds exactly the mirror's edges.
// Otherwise false with the first violation in *why.
inline bool check_matching(const pdmm::HyperedgeRegistry& g,
                           const std::vector<pdmm::EdgeId>& matched,
                           const pdmm::HyperedgeRegistry& mirror,
                           std::string* why) {
  if (g.num_edges() != mirror.num_edges()) {
    *why = "matcher holds " + std::to_string(g.num_edges()) +
           " live edges, generator mirror " +
           std::to_string(mirror.num_edges());
    return false;
  }
  std::vector<uint8_t> covered(
      std::max(g.vertex_bound(), mirror.vertex_bound()), 0);
  for (pdmm::EdgeId e : matched) {
    if (!g.alive(e)) {
      *why = "matched edge " + std::to_string(e) + " is not live";
      return false;
    }
    const auto eps = g.endpoints(e);
    if (mirror.find(eps) == pdmm::kNoEdge) {
      *why = "matched edge " + std::to_string(e) + " is not in the mirror";
      return false;
    }
    for (pdmm::Vertex v : eps) {
      if (covered[v]) {
        *why = "vertex " + std::to_string(v) + " is in two matched edges";
        return false;
      }
      covered[v] = 1;
    }
  }
  for (pdmm::EdgeId e : mirror.all_edges()) {
    const auto eps = mirror.endpoints(e);
    if (g.find(eps) == pdmm::kNoEdge) {
      *why = "mirror edge " + std::to_string(e) + " is missing in the matcher";
      return false;
    }
    bool hit = false;
    for (pdmm::Vertex v : eps) hit = hit || covered[v];
    if (!hit) {
      *why = "matching is not maximal: live edge with endpoints {" +
             std::to_string(eps[0]) + ", ...} has no matched endpoint";
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
