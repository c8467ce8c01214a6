// Update-stream generators (the oblivious adversaries of the experiments).
//
// Generators emit batches that reference edges by *endpoint list*, not by
// EdgeId: every matcher implementation resolves endpoints against its own
// registry, so one stream can drive pdmm and all baselines identically.
// Each generator mirrors the live edge set in its own registry so it never
// emits duplicate insertions or deletions of absent edges.
//
// All generator randomness comes from the generator's own seed — disjoint
// from the matcher seed, which is exactly the oblivious-adversary model of
// §2 (the adversary fixes the update sequence without seeing the
// algorithm's coins). AdversarialMatchedDeleter is the deliberate
// exception: it inspects the current matching (an *adaptive* adversary,
// outside the paper's model) and exists to measure how much the guarantees
// rely on obliviousness (experiment E10).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "baselines/matcher_base.h"
#include "graph/registry.h"
#include "graph/types.h"
#include "util/indexed_set.h"
#include "util/rng.h"

namespace pdmm {

struct Batch {
  std::vector<std::vector<Vertex>> deletions;   // by endpoints
  std::vector<std::vector<Vertex>> insertions;  // by endpoints
};

// Resolves a batch against a matcher's registry and applies it.
// Returns the per-insertion ids the matcher assigned.
std::vector<EdgeId> apply_batch(MatcherBase& m, const Batch& b);

// Distinct rank-`rank` edges on n vertices: C(n, rank), saturating at
// UINT64_MAX.
uint64_t distinct_edges(uint64_t n, uint32_t rank);

// Why a stream cannot serve a shape: the Options field at fault and the
// reason. A default-constructed ShapeError (no field) means it can.
//
// Each stream's static check() is pure (it draws no randomness, so no
// stream byte depends on it). It asks whether the stream can serve next(k)
// calls with every k <= `batch_size` and the k summing to at most `total`
// without running out of distinct edges: a stream that needs a fresh edge
// when every one is live would retry forever. Constructors assert the
// shape's batch-independent part, and an insertion that finds every
// distinct edge live asserts instead of spinning; tools and harnesses run
// check() on the shapes they will request before they start.
struct ShapeError {
  std::string field;
  std::string why;
  explicit operator bool() const { return !field.empty(); }
};

// Mirror of the live edge set shared by all generators.
class LiveSet {
 public:
  explicit LiveSet(uint32_t max_rank) : mirror_(max_rank) {}

  size_t size() const { return live_.size(); }
  const HyperedgeRegistry& mirror() const { return mirror_; }

  // Draws a fresh random rank-`rank` edge over [0, n) not currently live,
  // registers it and returns its endpoints.
  std::vector<Vertex> insert_random(Xoshiro256& rng, Vertex n, uint32_t rank);
  // Registers specific endpoints; returns empty vector when already live.
  std::vector<Vertex> insert_exact(std::span<const Vertex> eps);
  // Removes and returns a uniformly random live edge's endpoints. When
  // `exclude` is given, edges in it are rejected (used to avoid deleting an
  // edge inserted in the same batch — batches apply deletions first, so
  // such an op would be inexpressible); returns empty when only excluded
  // edges remain.
  std::vector<Vertex> erase_random(Xoshiro256& rng,
                                   const IndexedSet* exclude = nullptr);
  EdgeId find(std::span<const Vertex> eps) const { return mirror_.find(eps); }
  // Removes a specific live edge (by endpoints); asserts it is live.
  void erase_exact(std::span<const Vertex> eps);

 private:
  HyperedgeRegistry mirror_;
  IndexedSet live_;
};

// ---- concrete streams ----

// Mixed insert/delete churn around a target size: while below target the
// insert probability dominates; at steady state deletions and insertions
// balance. Uniform endpoints (zipf_s = 0) or Zipf-skewed endpoints.
class ChurnStream {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    size_t target_edges = 1 << 12;
    double delete_fraction = 0.5;  // at steady state
    double zipf_s = 0.0;           // endpoint skew (0 = uniform)
    uint64_t seed = 1;
  };
  // Live edges peak at max(lo + 1, hi, batch_size) for the band
  // [lo, hi] = target_edges -+ target_edges / 10 (see churn_next).
  static ShapeError check(const Options& opt, size_t batch_size,
                          uint64_t total = UINT64_MAX);
  explicit ChurnStream(const Options& opt);
  Batch next(size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  std::vector<Vertex> draw_endpoints();
  Options opt_;
  Xoshiro256 rng_;
  ZipfSampler zipf_;
  LiveSet live_;
};

// Sliding window: every batch inserts k fresh edges and deletes the k
// oldest (once the window is full) — the classic temporal-graph model.
class SlidingWindowStream {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    size_t window = 1 << 12;
    uint64_t seed = 1;
  };
  // Live edges peak at max(window, batch_size) + 1: each insertion comes
  // before its eviction, and a batch never evicts its own insertions.
  static ShapeError check(const Options& opt, size_t batch_size,
                          uint64_t total = UINT64_MAX);
  explicit SlidingWindowStream(const Options& opt);
  Batch next(size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  Options opt_;
  Xoshiro256 rng_;
  LiveSet live_;
  std::vector<std::vector<Vertex>> fifo_;
  size_t fifo_head_ = 0;
};

// Sliding-window churn: the temporal window of SlidingWindowStream plus
// mid-window churn. Every batch inserts fresh edges and, once the window is
// full, evicts the oldest survivors; additionally a `churn` fraction of the
// batch deletes a *random-age* window edge before inserting its
// replacement. Random-age deletions break the pure-FIFO lifetime
// distribution, so edge lifetimes mix short and long — harder on the
// leveling scheme than ChurnStream (no temporal order at all) or
// SlidingWindowStream (strictly FIFO lifetimes).
class WindowChurnStream {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    size_t window = 1 << 12;
    double churn = 0.25;  // fraction of slots deleting a random-age edge
    uint64_t seed = 1;
  };
  // As SlidingWindowStream, and the window holds at least one edge.
  static ShapeError check(const Options& opt, size_t batch_size,
                          uint64_t total = UINT64_MAX);
  explicit WindowChurnStream(const Options& opt);
  Batch next(size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  Options opt_;
  Xoshiro256 rng_;
  LiveSet live_;
  // Insertion-ordered window; an emptied slot marks an edge the churn path
  // already deleted (the eviction scan skips it).
  std::vector<std::vector<Vertex>> fifo_;
  size_t fifo_head_ = 0;
  size_t window_live_ = 0;
};

// Hub-heavy power-law inserts: every edge couples one Zipf-ranked hub
// endpoint with uniform partners (hub-and-spoke shape), so a handful of
// vertices own a large fraction of the live edges. Insert-heavy until
// target_edges, then steady-state churn with uniform-random deletions.
// High-degree hubs cross the o~(v, l) >= alpha^l rising threshold far more
// often than uniform churn produces, exercising grand-random-settle at
// high levels (ChurnStream's zipf_s skews *all* endpoints instead, which
// mostly yields hub-hub collisions rather than wide hubs).
class PowerLawStream {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    size_t target_edges = 1 << 12;
    double s = 1.1;                // Zipf exponent of the hub endpoint
    double delete_fraction = 0.5;  // at steady state
    uint64_t seed = 1;
  };
  // The same band walk as ChurnStream, so the same peak.
  static ShapeError check(const Options& opt, size_t batch_size,
                          uint64_t total = UINT64_MAX);
  explicit PowerLawStream(const Options& opt);
  Batch next(size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  std::vector<Vertex> draw_endpoints();
  Options opt_;
  Xoshiro256 rng_;
  ZipfSampler zipf_;
  LiveSet live_;
};

// Adversarial delete-reinsert oscillation: after building a stable
// background graph plus a fixed core edge set, batches alternate between
// deleting a stretch of the core and reinserting exactly those edges. The
// pattern is fixed up front — the adversary stays oblivious, unlike
// AdversarialMatchedDeleter — but it is a worst case for epoch longevity:
// the same endpoints flap every other batch, so matched epochs keep dying
// young and settles re-run over the same neighbourhoods indefinitely.
class OscillationStream {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    size_t core_edges = 1 << 10;        // the oscillating set
    size_t background_edges = 1 << 12;  // stable context edges
    uint64_t seed = 1;
  };
  // Every edge is drawn up front: background_edges + core_edges distinct
  // edges, at least one of them core, whatever the batches.
  static ShapeError check(const Options& opt);
  explicit OscillationStream(const Options& opt);
  Batch next(size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  Options opt_;
  Xoshiro256 rng_;
  LiveSet live_;
  std::vector<std::vector<Vertex>> pending_builds_;  // initial insertions
  size_t build_cursor_ = 0;
  std::vector<std::vector<Vertex>> core_;
  size_t cursor_ = 0;       // next core index to delete / reinsert
  bool deleting_ = true;    // current half of the oscillation cycle
};

// Adaptive adversary: deletes currently *matched* edges of a given matcher
// (plus inserts replacements to keep the graph size stable). Violates the
// oblivious model on purpose; see E10.
class AdversarialMatchedDeleter {
 public:
  struct Options {
    Vertex n = 1 << 12;
    uint32_t rank = 2;
    uint64_t seed = 1;
  };
  // Each batch deletes up to batch_size matched edges and inserts
  // batch_size fresh ones, so the live count grows only while the matching
  // holds fewer than batch_size edges; a maximal matching of M edges meets
  // at most rank * M * C(n - 1, rank - 1) of them.
  static ShapeError check(const Options& opt, size_t batch_size,
                          uint64_t total = UINT64_MAX);
  explicit AdversarialMatchedDeleter(const Options& opt);
  // Builds the next batch against the observed matcher state.
  Batch next(const MatcherBase& m, size_t batch_size);
  const LiveSet& live() const { return live_; }

 private:
  Options opt_;
  Xoshiro256 rng_;
  LiveSet live_;
};

}  // namespace pdmm
