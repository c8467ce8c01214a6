#include "static_mm/exact.h"

#include <algorithm>
#include <cstdint>

#include "util/assert.h"

namespace pdmm {
namespace {

struct Solver {
  // Candidate edges as dense vertex indices, in branching order.
  std::vector<std::vector<uint32_t>> edges;
  std::vector<uint8_t> used;    // dense vertex -> taken by the matching
  std::vector<uint8_t> marked;  // dense vertex -> counted by bound()
  std::vector<uint32_t> touched;
  size_t best = 0;

  bool free(const std::vector<uint32_t>& e) const {
    for (uint32_t v : e) {
      if (used[v]) return false;
    }
    return true;
  }

  // At most how many more edges edges[idx..] can add: each must be free
  // now, and they need disjoint vertices among the free vertices those
  // free edges touch, at least the smallest rank each.
  size_t bound(size_t idx) {
    size_t free_edges = 0, min_rank = SIZE_MAX;
    for (size_t i = idx; i < edges.size(); ++i) {
      if (!free(edges[i])) continue;
      ++free_edges;
      min_rank = std::min(min_rank, edges[i].size());
      for (uint32_t v : edges[i]) {
        if (!marked[v]) {
          marked[v] = 1;
          touched.push_back(v);
        }
      }
    }
    for (uint32_t v : touched) marked[v] = 0;
    const size_t vertices = touched.size();
    touched.clear();
    return free_edges == 0 ? 0 : std::min(free_edges, vertices / min_rank);
  }

  void solve(size_t idx, size_t current) {
    best = std::max(best, current);
    if (idx >= edges.size() || current + bound(idx) <= best) return;

    const std::vector<uint32_t>& e = edges[idx];
    if (free(e)) {
      for (uint32_t v : e) used[v] = 1;
      solve(idx + 1, current + 1);
      for (uint32_t v : e) used[v] = 0;
    }
    solve(idx + 1, current);
  }
};

}  // namespace

size_t exact_maximum_matching_size(const HyperedgeRegistry& reg,
                                   std::span<const EdgeId> candidates) {
  PDMM_ASSERT_MSG(candidates.size() <= 4096,
                  "exact solver is for small test instances only");
  // Relabel the touched vertices densely so the per-vertex lanes stay as
  // small as the instance.
  std::vector<Vertex> vertices;
  for (EdgeId e : candidates) {
    for (Vertex v : reg.endpoints(e)) vertices.push_back(v);
  }
  std::sort(vertices.begin(), vertices.end());
  vertices.erase(std::unique(vertices.begin(), vertices.end()),
                 vertices.end());
  Solver s;
  for (EdgeId e : candidates) {
    std::vector<uint32_t> dense;
    for (Vertex v : reg.endpoints(e)) {
      dense.push_back(static_cast<uint32_t>(
          std::lower_bound(vertices.begin(), vertices.end(), v) -
          vertices.begin()));
    }
    s.edges.push_back(std::move(dense));
  }
  s.used.assign(vertices.size(), 0);
  s.marked.assign(vertices.size(), 0);

  // Order by decreasing conflict degree helps the bound prune early: count
  // per-vertex incidences, score edges by the sum.
  std::vector<uint32_t> deg(vertices.size(), 0);
  for (const auto& e : s.edges) {
    for (uint32_t v : e) ++deg[v];
  }
  auto score = [&](const std::vector<uint32_t>& e) {
    uint32_t t = 0;
    for (uint32_t v : e) t += deg[v];
    return t;
  };
  std::sort(s.edges.begin(), s.edges.end(),
            [&](const auto& a, const auto& b) { return score(a) > score(b); });
  s.solve(0, 0);
  return s.best;
}

}  // namespace pdmm
