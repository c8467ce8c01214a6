#include "static_mm/luby.h"

#include <algorithm>
#include <atomic>
#include <numeric>

#include "dict/phase_dict.h"
#include "parallel/pack.h"
#include "parallel/parallel_for.h"
#include "util/assert.h"
#include "util/bits.h"
#include "util/rng.h"

namespace pdmm {
namespace {

// Priority word: 32 random bits in the high half, the edge id in the low
// half. Distinct per edge by construction, so per-vertex maxima are unique
// winners (ties between equal random halves fall back to edge id, which is
// deterministic and costs only a negligible bias).
uint64_t priority_of(const IndexedRng::Stream& draws, EdgeId e) {
  return (draws.raw(e) & 0xFFFFFFFF00000000ull) | e;
}

}  // namespace

void static_maximal_matching(ThreadPool& pool, const HyperedgeRegistry& reg,
                             std::span<const EdgeId> candidates,
                             uint64_t seed, StaticMMScratch& s,
                             StaticMMResult& out, CostCounters* cost) {
  out.matched.clear();
  out.rounds = 0;
  const size_t m0 = candidates.size();
  if (m0 == 0) return;
  const uint32_t r = reg.max_rank();

  // The EREW algorithm first relabels the O(m r) touched vertices densely
  // (a sort, then one lookup per endpoint) so its per-round vertex state
  // is O(m r). The lanes index vertex ids instead, but both relabel rounds
  // are still charged, so `work` and `rounds` stay the algorithm's.
  if (cost) cost->round(m0 * r);
  if (cost) cost->round(m0 * r);
  s.vmax.resize(std::max<size_t>(s.vmax.size(), reg.vertex_bound()), 0);
  s.vmatched.resize(s.vmax.size(), 0);
  auto& live = s.live;  // indices into candidates
  live.resize(m0);
  std::iota(live.begin(), live.end(), 0u);
  s.prio.resize(m0);

  // Safety cap: Luby finishes in O(log m) rounds whp; 64 + 8*log2 is far
  // beyond any plausible run and turns a broken RNG into a loud failure.
  const uint32_t round_cap = 64 + 8 * log2_ceil(m0 + 2);

  while (!live.empty()) {
    PDMM_ASSERT_MSG(out.rounds < round_cap,
                    "Luby failed to terminate within the whp round budget");
    const uint32_t round = ++out.rounds;
    const size_t m = live.size();

    // Draw priorities and publish per-vertex maxima. The round's draws are
    // hash_mix(seed, round, e).
    const IndexedRng::Stream draws = IndexedRng(seed).stream(round);
    parallel_for(pool, m, [&](size_t i) {
      const uint32_t c = live[i];
      const uint64_t p = priority_of(draws, candidates[c]);
      s.prio[c] = p;
      for (Vertex v : reg.endpoints(candidates[c])) {
        const std::atomic_ref slot(s.vmax[v]);
        // mo: relaxed — monotone fetch-max race; only the winning value
        // matters and the phase boundary (pool barrier) orders it before
        // the reads in the winner-selection pass.
        uint64_t cur = slot.load(std::memory_order_relaxed);
        while (cur < p &&
               !slot.compare_exchange_weak(cur, p, std::memory_order_relaxed)) {
        }
      }
    });
    if (cost) cost->round(m * r);

    // Winners: local maximum at every endpoint. Mark their endpoints.
    pack_values_into(
        pool, live,
        [&](size_t i) {
          const uint32_t c = live[i];
          const auto eps = reg.endpoints(candidates[c]);
          for (Vertex v : eps) {
            // mo: relaxed — reads values written in the previous phase;
            // the pool barrier between phases is the synchronization edge.
            if (std::atomic_ref(s.vmax[v]).load(std::memory_order_relaxed) !=
                s.prio[c])
              return false;
          }
          for (Vertex v : eps)
            // mo: relaxed — idempotent flag set (1 is the only value
            // written); readers run in the next phase, after the barrier.
            std::atomic_ref(s.vmatched[v]).store(1, std::memory_order_relaxed);
          return true;
        },
        s.winners, s.pack_flags);
    if (cost) cost->round(m * r + s.winners.size() * r);
    PDMM_ASSERT_MSG(!s.winners.empty(),
                    "a Luby round must match at least the global maximum");
    for (uint32_t c : s.winners) out.matched.push_back(candidates[c]);

    // Drop candidates incident to matched vertices, and zero the maxima of
    // every endpoint this round published to, so vmax is all zero again.
    pack_values_into(
        pool, live,
        [&](size_t i) {
          bool keep = true;
          for (Vertex v : reg.endpoints(candidates[live[i]])) {
            // mo: relaxed — every writer stores the same 0 and nobody reads
            // vmax in this phase; the next round's pool barrier orders the
            // reset before any re-publish.
            std::atomic_ref(s.vmax[v]).store(0, std::memory_order_relaxed);
            // mo: relaxed — flag was set before the previous pool barrier.
            keep &= !std::atomic_ref(s.vmatched[v]).load(
                std::memory_order_relaxed);
          }
          return keep;
        },
        s.next_live, s.pack_flags);
    live.swap(s.next_live);
    if (cost) cost->round(m * r);
  }
  // Leave vmatched all zero for the next call (after the last pool barrier,
  // so plain writes).
  for (EdgeId e : out.matched)
    for (Vertex v : reg.endpoints(e)) s.vmatched[v] = 0;
}

StaticMMResult static_maximal_matching(ThreadPool& pool,
                                       const HyperedgeRegistry& reg,
                                       std::span<const EdgeId> candidates,
                                       uint64_t seed, CostCounters* cost) {
  StaticMMScratch scratch;
  StaticMMResult out;
  static_maximal_matching(pool, reg, candidates, seed, scratch, out, cost);
  return out;
}

std::vector<EdgeId> greedy_maximal_matching(
    const HyperedgeRegistry& reg, std::span<const EdgeId> candidates) {
  std::vector<EdgeId> matched;
  // Vertex-marked greedy; hash set sized to the touched universe.
  std::vector<Vertex> marked;
  PhaseDict<uint8_t> taken(candidates.size() * 2 + 16);
  for (EdgeId e : candidates) {
    bool free = true;
    for (Vertex v : reg.endpoints(e)) {
      if (taken.contains(v)) {
        free = false;
        break;
      }
    }
    if (!free) continue;
    for (Vertex v : reg.endpoints(e)) taken.insert(v, 1);
    matched.push_back(e);
  }
  return matched;
}

}  // namespace pdmm
