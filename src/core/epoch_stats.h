// Epoch accounting (§4.2). An epoch is a maximal period during which an
// edge stays in M. Epochs end *naturally* (the adversary deleted the edge)
// or are *induced* (the algorithm kicked the edge in favor of another, or
// lifted it to a different level — the lift ends the level-l accounting
// period even though the edge stays matched). Benchmarks E7/E8 read these
// counters to validate Lemmas 4.6 and 4.13–4.15.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "util/stats.h"

namespace pdmm {

struct EpochStats {
  explicit EpochStats(size_t num_levels)
      : created(num_levels, 0),
        ended_natural(num_levels, 0),
        ended_induced(num_levels, 0),
        d_budget_consumed(num_levels, 0),
        d_size_at_creation(num_levels, 0) {}

  // All indexed by epoch level.
  std::vector<uint64_t> created;
  std::vector<uint64_t> ended_natural;
  std::vector<uint64_t> ended_induced;
  // Number of D(e) members the adversary deleted before the epoch ended
  // (the "budget" the amortization argument collects), summed per level.
  std::vector<uint64_t> d_budget_consumed;
  // Sum of |D(e)| at epoch creation per level (for mean budget provisioned).
  std::vector<uint64_t> d_size_at_creation;

  void resize(size_t num_levels) {
    created.assign(num_levels, 0);
    ended_natural.assign(num_levels, 0);
    ended_induced.assign(num_levels, 0);
    d_budget_consumed.assign(num_levels, 0);
    d_size_at_creation.assign(num_levels, 0);
  }
};

// Aggregate counters a batch reports; also exposed cumulatively.
struct MatcherStats {
  uint64_t batches = 0;
  uint64_t updates = 0;           // insertions + deletions accepted
  uint64_t rebuilds = 0;
  uint64_t settles = 0;           // grand-random-settle invocations
  uint64_t subsettles = 0;        // subsettle repetitions
  uint64_t subsubsettles = 0;     // marking iterations
  uint64_t settle_fallbacks = 0;  // times the whp repeat cap was hit
  uint64_t eager_sweeps = 0;      // post-insertion settle sweeps run
  uint64_t eager_cap_hits = 0;    // eager drain loops cut short
  uint64_t static_mm_rounds = 0;  // Luby rounds across all invocations
  uint64_t edges_lifted = 0;      // matched edges created/raised by settles
  uint64_t edges_kicked = 0;      // induced unmatchings
  uint64_t temp_deleted = 0;      // edges moved into some D(e)
  uint64_t reinserted = 0;        // temp-deleted/kicked edges reinserted
  uint64_t view_delta_captures = 0;  // make_view_into patched from a base
};

}  // namespace pdmm
