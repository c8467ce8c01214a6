// Exhaustive invariant validation for DynamicMatcher: the one definition of
// a valid between-batch state.
//
// violation() walks the entire matcher state and tests every structural
// invariant of §3.2 plus matching validity and maximality. It never aborts
// and never indexes with an unvalidated id, so it also vets untrusted state:
// DynamicMatcher::load() runs it on every restored snapshot and reports a
// violation as a SnapshotError. check() is the aborting test oracle over the
// same walk. Both are O(graph) per call and meant for tests, fuzzing
// (Config::check_invariants) and restores, not production batches.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "graph/registry.h"
#include "graph/types.h"

namespace pdmm {

class DynamicMatcher;

class MatchingChecker {
 public:
  // The first violated invariant, naming the ids involved; "" when the
  // state is valid.
  static std::string violation(const DynamicMatcher& m);

  // Aborts (PDMM_ASSERT) on violation(), and additionally on a non-empty
  // rising set in eager mode (Invariant 3.5(2)), which load() cannot check.
  static void check(const DynamicMatcher& m);

  // Standalone: asserts `matched` is a valid maximal matching of all alive
  // edges of `reg` (used for the baselines and the static algorithm).
  static void check_maximal_matching(const HyperedgeRegistry& reg,
                                     std::span<const EdgeId> matched);
};

}  // namespace pdmm
