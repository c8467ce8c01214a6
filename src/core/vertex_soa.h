// VertexHotSoA: the matcher's hot per-vertex scalars — level, matched edge,
// S_l membership mask — in structure-of-arrays layout.
//
// The settle sweeps and the S_l mask refresh touch these scalars for
// thousands of vertices per batch while never looking at the cold per-vertex
// incidence arrays adj(v). Keeping the scalars
// in their own dense arrays means those loops stream 4- and 8-byte lanes at
// cache-line density instead of striding over 48-byte VertexState records
// that are mostly members they never read.
//
// Accessor contract: ALL access goes through the methods below. Direct
// indexing of the arrays outside this file is rejected by the
// `hot-field-access` pdmm_lint rule — the layout is an implementation detail
// the rest of the tree must not grow dependencies on, and funnel accessors
// are what keeps the lanes provably resized in lockstep (MatchingChecker
// cross-validates the sizes and the mirror invariants every check). Bulk
// read-only spans are provided for memcpy-speed consumers (the full
// MatchView build); they are views, not an escape hatch for writes.
//
// Change log: while it is on, set_level / set_matched record each vertex
// whose level or matched edge they write, once per vertex. The delta view
// capture (DynamicMatcher::make_view_into) patches exactly these vertices
// into a copy of the previous view's lanes. Because the setters are the
// only write path, no write can bypass the log.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"

namespace pdmm {

class VertexHotSoA {
 public:
  Level level(Vertex v) const { return vlevel_[v]; }
  void set_level(Vertex v, Level l) {
    vlevel_[v] = l;
    log_change(v);
  }

  EdgeId matched(Vertex v) const { return vmatched_[v]; }
  void set_matched(Vertex v, EdgeId e) {
    vmatched_[v] = e;
    log_change(v);
  }

  uint64_t s_mask(Vertex v) const { return vsmask_[v]; }
  void set_s_mask(Vertex v, uint64_t m) { vsmask_[v] = m; }

  size_t size() const { return vlevel_.size(); }

  // Grows (or shrinks) all lanes together; new vertices get the
  // freshly-constructed defaults (unmatched, no edge, empty mask). A
  // shrink stops the change log, which could name dropped vertices.
  void resize(size_t n) {
    if (n < vchanged_.size()) stop_change_log();
    vlevel_.resize(n, kUnmatchedLevel);
    vmatched_.resize(n, kNoEdge);
    vsmask_.resize(n, 0);
    vchanged_.resize(n, 0);
  }

  // Drops every vertex, and with them the change log (its entries would
  // name vertices that no longer exist).
  void clear() {
    vlevel_.clear();
    vmatched_.clear();
    vsmask_.clear();
    vchanged_.clear();
    changed_.clear();
    logging_ = false;
  }

  // ---- change log ----
  // (Re)starts the log empty; from here on every level / matched-edge
  // write is recorded.
  void restart_change_log() {
    forget_changes();
    logging_ = true;
  }
  // Stops recording and forgets what was recorded.
  void stop_change_log() {
    forget_changes();
    logging_ = false;
  }
  // Vertices written since the log (re)started, each once, unordered.
  std::span<const Vertex> changed() const { return changed_; }

  // Bulk read-only views for consumers that copy a whole lane (the full
  // MatchView build assigns these directly instead of looping per vertex).
  std::span<const Level> levels() const { return vlevel_; }
  std::span<const EdgeId> matched_edges() const { return vmatched_; }

  // Per-lane sizes, exposed so MatchingChecker can assert the lanes never
  // drift apart (resize() is the only growth path, but the checker proves
  // it rather than trusting it).
  size_t level_lane_size() const { return vlevel_.size(); }
  size_t matched_lane_size() const { return vmatched_.size(); }
  size_t s_mask_lane_size() const { return vsmask_.size(); }
  size_t changed_lane_size() const { return vchanged_.size(); }

 private:
  void log_change(Vertex v) {
    if (logging_ && !vchanged_[v]) {
      vchanged_[v] = 1;
      changed_.push_back(v);
    }
  }
  void forget_changes() {
    for (Vertex v : changed_) vchanged_[v] = 0;
    changed_.clear();
  }

  std::vector<Level> vlevel_;
  std::vector<EdgeId> vmatched_;
  std::vector<uint64_t> vsmask_;
  std::vector<uint8_t> vchanged_;  // 1 iff the vertex is in changed_
  std::vector<Vertex> changed_;
  bool logging_ = false;
};

}  // namespace pdmm
