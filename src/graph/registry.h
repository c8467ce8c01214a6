// HyperedgeRegistry: the hypergraph substrate.
//
// Stores rank<=r hyperedges in a flat arena (fixed stride of max_rank
// vertices per edge, so endpoint access never chases pointers), assigns
// dense EdgeIds with free-list recycling, and maintains a canonical-form
// lookup (sorted endpoint set -> EdgeId) so updates given as vertex sets can
// be resolved to ids and duplicate insertions detected. It is the edge
// dictionary of §2 of the paper, O(1) expected per lookup, insert and erase.
//
// The lookup is one open-addressed table of 8-byte slots {tag, id}, where
// tag is a 32-bit hash of the sorted endpoint set (one mixing pass per
// endpoint) and also names the slot's home, tag & (slots - 1). Linear
// probing at load <= 1/2; the table only grows, and growth moves slots by
// their tags without touching the arena. A hit needs an equal tag AND equal
// endpoints in the arena, so lookups are exact: endpoint sets with equal
// tags sit in neighbouring slots of one probe run. Erase shifts later
// members of the run back into the hole (backward-shift deletion), so there
// are no tombstones and no rebuilds. insert, find and erase each walk one
// probe run once. The table's layout never reaches ids or state: ids come
// off the free list alone.
//
// The batch forms (insert_batch, find_batch, erase_batch) are the batch
// dictionary the paper's §2 assumes, run in two passes over the batch.
// Pass 1 canonicalizes and tags every key and prefetches its home slot, so
// the batch's cache misses overlap instead of each key waiting out its
// own. Pass 2 probes, then places or erases, key by key in input order
// through the same per-key core as the one-key calls. So a batch returns
// the ids, rejects the duplicates (the first occurrence wins) and leaves
// the free list exactly as the one-key calls in input order would.
// insert_batch grows the table once, for the whole batch, before pass 1.
//
// The registry is intentionally policy-free: all matching/leveling state
// lives in the matcher. Everything the adversary can see — which edges are
// present — is the registry's content; the matcher's "temporarily deleted"
// edges remain present here (flagged by the matcher, not the registry).
#pragma once

#include <span>
#include <vector>

#include "graph/types.h"
#include "util/assert.h"

namespace pdmm {

class HyperedgeRegistry {
 public:
  explicit HyperedgeRegistry(uint32_t max_rank);

  uint32_t max_rank() const { return max_rank_; }
  size_t num_edges() const { return num_alive_; }
  // One past the largest EdgeId ever allocated; per-edge arrays in client
  // code are sized by this.
  size_t id_bound() const { return deg_.size(); }
  Vertex vertex_bound() const { return vertex_bound_; }

  // Inserts the hyperedge with the given endpoints (1..max_rank distinct
  // vertices, any order). Returns the new EdgeId, or kNoEdge when an edge
  // with the same endpoint set is already present.
  EdgeId insert(std::span<const Vertex> endpoints);

  // Looks up an edge by endpoint set. kNoEdge when absent.
  EdgeId find(std::span<const Vertex> endpoints) const;

  // Removes an edge by id (must be alive). Its id returns to the free list.
  void erase(EdgeId e);

  // Batch forms: the same results as the one-key calls made in input
  // order. ids[i] receives insert(keys[i]) / find(keys[i]); `ids` must be
  // as long as `keys`. erase_batch takes alive ids, each once.
  void insert_batch(std::span<const std::vector<Vertex>> keys,
                    std::span<EdgeId> ids);
  void find_batch(std::span<const std::vector<Vertex>> keys,
                  std::span<EdgeId> ids) const;
  void erase_batch(std::span<const EdgeId> ids);

  bool alive(EdgeId e) const { return e < deg_.size() && deg_[e] != 0; }

  // Sorted (canonical) endpoints of a live edge.
  std::span<const Vertex> endpoints(EdgeId e) const {
    PDMM_DASSERT(alive(e));
    return {endpoints_.data() + static_cast<size_t>(e) * max_rank_, deg_[e]};
  }

  uint32_t rank(EdgeId e) const {
    PDMM_DASSERT(alive(e));
    return deg_[e];
  }

  std::vector<EdgeId> all_edges() const;

  // --- snapshot support (core/snapshot.cpp) ---
  // Restores an exact registry image: begin clears and sizes the id space,
  // each restore_slot registers an edge under its original id (false, and
  // nothing registered, when an edge with those endpoints is already
  // present), and restore_free_list reinstates the free-list order so
  // future id assignment matches the snapshotted instance exactly.
  void restore_begin(size_t id_bound);
  [[nodiscard]] bool restore_slot(EdgeId id,
                                  std::span<const Vertex> sorted_endpoints);
  void restore_free_list(std::span<const EdgeId> free_ids);
  std::span<const EdgeId> free_list() const { return free_ids_; }

 private:
  static constexpr size_t kMaxRankLimit = 200;
  static constexpr size_t kMinSlots = 16;

  struct Slot {
    uint32_t tag = 0;
    EdgeId id = kNoEdge;  // kNoEdge: empty
  };

  // Copies eps into out in ascending order (the canonical form).
  std::span<const Vertex> canonical(std::span<const Vertex> eps,
                                    Vertex* out) const;
  static uint32_t tag_of(std::span<const Vertex> sorted);
  bool endpoints_equal(EdgeId e, std::span<const Vertex> sorted) const;
  // Pass 1 of a batch operation: pull the key's home slot toward the cache.
  void prefetch_home(uint32_t tag) const {
    __builtin_prefetch(&slots_[tag & mask_]);
  }
  // The slot holding `sorted`, else the empty slot that ends its probe run.
  size_t probe(uint32_t tag, std::span<const Vertex> sorted) const;
  // Makes room for `extra` more edges, doubling the table past load 1/2.
  void reserve(size_t extra);
  // The per-key cores: insert a canonical key under its tag (kNoEdge when
  // present), and erase a live id whose endpoints hash to `tag`.
  EdgeId insert_tagged(std::span<const Vertex> sorted, uint32_t tag);
  void erase_tagged(EdgeId e, uint32_t tag);
  // Stores a new edge's endpoints and its index slot.
  void place(EdgeId id, std::span<const Vertex> sorted, uint32_t tag,
             size_t slot);

  uint32_t max_rank_;
  std::vector<Vertex> endpoints_;   // stride max_rank_, sorted per edge
  std::vector<uint8_t> deg_;        // 0 = dead slot
  std::vector<EdgeId> free_ids_;
  std::vector<Slot> slots_;         // the index; power-of-two size
  size_t mask_;                     // slots_.size() - 1
  size_t num_alive_ = 0;
  Vertex vertex_bound_ = 0;  // max endpoint seen + 1
  std::vector<uint32_t> erase_tags_;  // erase_batch's pass-1 tags
};

}  // namespace pdmm
