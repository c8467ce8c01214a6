// Grouped-mutation application: the EREW pattern of a phase that mutates
// per-vertex structures.
//
// A parallel phase first *computes* its mutations read-only (one record per
// (target vertex, payload)), then this helper applies each group of records
// sharing a target through a callback that touches only that target.
//
// No production code calls it: the matcher's structural applies are plain
// passes in record order (core/matcher.cpp), because this helper had become
// one too. It is kept, with its tests, as a tested primitive, like
// parallel/scan.h and parallel/reduce.h. A pooled grouped apply comes back
// only with a measured crossover where it beats the serial pass.
//
// Determinism discipline: phases that care about the order of mutations
// *within* one group (container iteration order feeds downstream random
// sampling) use a key that is unique per record — typically
// (target << 32) | edge — and a group projection of the key. Every group
// then receives its records in ascending-key order, so the applied order is
// independent of the thread count by construction.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "parallel/cost_model.h"
#include "util/assert.h"

namespace pdmm {

// Calls apply(group, span_begin, span_end) on each run of consecutive
// records that share group(key(record)), in input order, and leaves each
// distinct group once in `group_ids`, in the order of its first record.
// Keys must be UNIQUE per record.
//
// The dedupe goes through a per-group flag the caller owns: mark(g) sets
// g's flag and returns whether it was clear. Every flag must be clear on
// entry; the flags this call sets are exactly those of `group_ids`, so the
// caller clears them by re-walking that list (a vertex-indexed lane) or
// lets them go out of scope (a local 64-bit mask over levels). No sort.
//
// Precondition: within each group, keys ascend in input order (records of
// different groups may interleave freely), so every group receives all of
// its records in ascending key order. Debug builds assert it.
//
// The records apply in one serial pass, with no sort and no pool. The cost
// model still charges the EREW algorithm's two rounds — records.size() for
// sorting the records by key and the group count for applying each group
// as its own task — so `work` and `rounds` do not depend on how the pass
// runs. Sorting and then applying the groups on the pool measured no
// faster at any record or thread count on a 4-vCPU VM (E13 batch = 8192,
// churn_wide_t4); ROADMAP's parallelism item has the numbers.
template <typename Rec, typename KeyFn, typename GroupFn, typename MarkFn,
          typename ApplyFn>
void apply_grouped_unique(const std::vector<Rec>& records, KeyFn&& key,
                          GroupFn&& group, MarkFn&& mark, ApplyFn&& apply,
                          std::vector<uint64_t>& group_ids,
                          CostCounters* cost = nullptr) {
  group_ids.clear();
  if (records.empty()) return;
  const size_t n = records.size();
  const Rec* recs = records.data();
#ifndef NDEBUG
  std::unordered_map<uint64_t, uint64_t> last;  // group -> its last key
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key(recs[i]);
    const auto [it, first] = last.try_emplace(group(k), k);
    PDMM_ASSERT_MSG(first || it->second < k,
                    "grouped records must ascend by key within each group");
    it->second = k;
  }
#endif
  for (size_t b = 0; b < n;) {
    const uint64_t g = group(key(recs[b]));
    size_t e = b + 1;
    while (e < n && group(key(recs[e])) == g) ++e;
    apply(g, recs + b, recs + e);
    if (mark(g)) group_ids.push_back(g);
    b = e;
  }
  if (cost) {
    cost->round(n);                 // sort counts as one logical round here;
    cost->round(group_ids.size());  // apply is the second round.
  }
}

}  // namespace pdmm
