// Exact maximum (hypergraph) matching by branch and bound, for *small*
// instances only. This is a test/benchmark oracle: maximal matchings are
// guaranteed to reach at least 1/r of the maximum (paper §2), and the
// quality experiments measure how close the maintained matching actually
// gets. Exponential in the worst case; callers cap instance size.
#pragma once

#include <span>
#include <vector>

#include "graph/registry.h"
#include "graph/types.h"

namespace pdmm {

// Size of a maximum matching among `candidates`. Branch and bound over the
// candidate list ordered by degree. A branch is pruned when even the best
// case cannot beat the best found: the edges left that are still free, and
// no more of them than the free vertices they touch can hold disjointly at
// the smallest rank. Intended for |candidates| up to a few hundred sparse
// edges.
size_t exact_maximum_matching_size(const HyperedgeRegistry& reg,
                                   std::span<const EdgeId> candidates);

}  // namespace pdmm
