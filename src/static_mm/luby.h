// Static parallel hypergraph maximal matching (Theorem 2.2 of the paper).
//
// Luby's MIS algorithm [Lub85] run on the conflict graph whose vertices are
// the candidate hyperedges and whose adjacency is "shares an endpoint": per
// round every live candidate draws a random priority; candidates that hold
// the maximum priority at *all* of their endpoints join the matching, and
// every candidate incident to a newly matched endpoint is removed.
// Terminates in O(log M) rounds with high probability; each round is O(M r)
// work.
//
// The caller supplies the candidate set; all candidates must be pairwise
// conflict-resolvable (i.e. this routine matches within the candidate set
// only and does not look at the rest of the graph). The dynamic matcher
// invokes it on sets of edges whose endpoints are currently all unmatched.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/registry.h"
#include "graph/types.h"
#include "parallel/cost_model.h"
#include "parallel/thread_pool.h"

namespace pdmm {

struct StaticMMResult {
  std::vector<EdgeId> matched;
  uint32_t rounds = 0;  // Luby rounds used (the O(log M) quantity)
};

// Working storage of static_maximal_matching, reusable across calls and
// registries. Per-vertex state lives in lanes indexed by vertex id (read
// through std::atomic_ref, all zero between calls), with endpoints read
// straight from the registry, so a caller that matches every batch (the
// dynamic matcher) allocates nothing once its scratch has grown.
struct StaticMMScratch {
  std::vector<uint64_t> vmax;     // per vertex: the round's max priority
  std::vector<uint8_t> vmatched;  // per vertex: matched during this call
  std::vector<uint32_t> live, next_live, winners;  // candidate indices
  std::vector<uint64_t> prio;  // per candidate index: this round's priority
  std::vector<uint8_t> pack_flags;
};

// Computes a maximal matching among `candidates` (ids live in `reg`) into
// `out`, reusing its vector. Deterministic for a fixed seed, whatever the
// pool size or the scratch's history. `cost`, when provided, accrues one
// round per parallel primitive plus the element work.
void static_maximal_matching(ThreadPool& pool, const HyperedgeRegistry& reg,
                             std::span<const EdgeId> candidates,
                             uint64_t seed, StaticMMScratch& scratch,
                             StaticMMResult& out,
                             CostCounters* cost = nullptr);

// The same with a fresh scratch (tests, baselines and benches).
StaticMMResult static_maximal_matching(ThreadPool& pool,
                                       const HyperedgeRegistry& reg,
                                       std::span<const EdgeId> candidates,
                                       uint64_t seed,
                                       CostCounters* cost = nullptr);

// Simple serial greedy maximal matching over the same candidate set; the
// test oracle for static_maximal_matching and the reference point for
// benchmark E1.
std::vector<EdgeId> greedy_maximal_matching(const HyperedgeRegistry& reg,
                                            std::span<const EdgeId> candidates);

}  // namespace pdmm
