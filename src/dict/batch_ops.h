// Grouped-mutation application: the EREW discipline used by every phase of
// the dynamic matcher that mutates per-vertex structures.
//
// A parallel phase first *computes* its mutations read-only (one record per
// (target vertex, payload)), then this helper sorts the records by key and
// applies each group in a single task. Concurrent tasks touch disjoint
// targets, so per-target containers need no locks, and the sorted order
// makes the result deterministic for a fixed seed.
//
// Determinism discipline: phases that care about the order of mutations
// *within* one group (container iteration order feeds downstream random
// sampling) use apply_grouped_unique with a key that is unique per record —
// typically (target << 32) | edge — and a group projection of the key. A
// total order leaves nothing to the sort's tie-breaking, so the applied
// order is independent of grain and thread count by construction.
#pragma once

#include <cstdint>
#include <vector>

#include "parallel/cost_model.h"
#include "parallel/parallel_for.h"
#include "parallel/sort.h"
#include "parallel/thread_pool.h"

namespace pdmm {

// Scratch for the grouped-apply helpers (merge buffer + group offsets) so
// hot callers can run allocation-free.
template <typename Rec>
struct GroupScratch {
  std::vector<Rec> sort_buf;
  std::vector<size_t> starts;
};

// Sorts `records` by key(record) (a uint64 that must be UNIQUE per record),
// then calls apply(group, span_begin, span_end) once per distinct
// group(key), groups in parallel. Because keys are unique, the applied
// order within each group is the ascending-key order — fully deterministic.
template <typename Rec, typename KeyFn, typename GroupFn, typename ApplyFn>
void apply_grouped_unique(ThreadPool& pool, std::vector<Rec>& records,
                          KeyFn&& key, GroupFn&& group, ApplyFn&& apply,
                          GroupScratch<Rec>& scratch,
                          CostCounters* cost = nullptr) {
  if (records.empty()) return;
  parallel_sort_with(pool, records, scratch.sort_buf,
                     [&](const Rec& a, const Rec& b) { return key(a) < key(b); });
  group_boundaries_into(
      records, [&](const Rec& r) { return group(key(r)); }, scratch.starts);
  const std::vector<size_t>& starts = scratch.starts;
  const size_t groups = starts.size() - 1;
  parallel_for(
      pool, groups,
      [&](size_t g) {
        apply(group(key(records[starts[g]])), records.data() + starts[g],
              records.data() + starts[g + 1]);
      },
      /*grain=*/1);
  if (cost) {
    cost->round(records.size());  // sort counts as one logical round here;
    cost->round(groups);          // apply is the second round.
  }
}

}  // namespace pdmm
