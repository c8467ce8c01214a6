// DynamicMatcher: the paper's parallel dynamic maximal matching algorithm
// (Ghaffari & Trygub, SPAA 2024), §3.
//
// The matcher maintains a maximal matching M of a rank-r hypergraph under
// arbitrary batches of edge insertions and deletions. One `update()` call
// processes one batch:
//
//   1. unmatched / temporarily-deleted edge deletions   (§3.3.1)
//   2. matched edge deletions, then a level sweep  L..0 (§3.3.2)
//      - process-level step 1: static MM over the free edges owned by
//        undecided nodes of this level; winners drop to level 0,
//        unmatched undecided nodes drop to level -1
//      - process-level step 2: grand-random-settle of the rising set
//        B = S_l  (implemented in settle.cpp)
//   3. insertions, including reinsertion of kicked matched edges and of
//      dissolved temporarily-deleted sets D(e)           (§3.3.3)
//   4. optionally an extra settle sweep so Invariant 3.5(2) holds after
//      every batch (Config::settle_after_insertions)
//
// Leveling invariants maintained (checked exhaustively by MatchingChecker):
//   - matched e: all endpoints at level l(e); unmatched e: l(e) = max
//     endpoint level = owner level; owner is a max-level endpoint
//   - l(v) = -1 iff v unmatched (undecided nodes transiently violate this
//     *inside* a batch; never between batches)
//   - temp-deleted edges appear in exactly one D(e), e matched and sharing
//     a vertex with them, and in no other structure
//   - O(v) and A(v, l) are kept as one incidence array adj(v), holding
//     every structured edge at v once, plus v's count lane: |O(v)| and
//     each |A(v, l)|, the set of an edge read from its owner and level
//   - S_l = {v : l(v) < l and o~(v,l) >= alpha^l}
//
// Randomness: all random choices derive from (Config::seed, batch counter,
// phase counters, edge id) via stateless hashing, so a run is deterministic
// for a fixed seed regardless of thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/epoch_stats.h"
#include "core/level_scheme.h"
#include "core/vertex_soa.h"
#include "graph/registry.h"
#include "graph/types.h"
#include "parallel/cost_model.h"
#include "parallel/thread_pool.h"
#include "static_mm/luby.h"
#include "util/indexed_set.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"
#include "util/rng.h"
#include "util/small_vector.h"

namespace pdmm {

class MatchingChecker;
struct MatchView;

// Outcome of DynamicMatcher::load(). Snapshot input is treated as
// untrusted: every malformed, truncated, out-of-bounds or inconsistent
// input is reported here as a recoverable error — load() never aborts the
// process and never performs an out-of-bounds access, whatever the bytes.
struct SnapshotError {
  // 1-based line of the offending snapshot line; 0 when the error is not
  // tied to a single line (stream-level failure, post-load verification).
  size_t line = 0;
  std::string message;  // empty <=> success

  bool ok() const { return message.empty(); }
  std::string to_string() const {
    if (ok()) return "ok";
    if (line == 0) return "snapshot: " + message;
    return "snapshot line " + std::to_string(line) + ": " + message;
  }
};

class DynamicMatcher {
 public:
  DynamicMatcher(const Config& cfg, ThreadPool& pool);
  ~DynamicMatcher();

  DynamicMatcher(const DynamicMatcher&) = delete;
  DynamicMatcher& operator=(const DynamicMatcher&) = delete;

  struct BatchResult {
    // One entry per insertion, aligned: the new EdgeId, or kNoEdge when the
    // insertion was rejected (duplicate of a present edge or of an earlier
    // insertion in the same batch).
    std::vector<EdgeId> inserted_ids;
    // Edges that entered / left M during this batch, ascending (post-state
    // wins: an edge that entered and left within the batch appears in
    // neither).
    std::vector<EdgeId> newly_matched;
    std::vector<EdgeId> newly_unmatched;
    uint64_t work = 0;    // element operations spent on this batch
    uint64_t rounds = 0;  // parallel rounds spent on this batch (depth proxy)
    bool rebuilt = false;
  };

  // Processes one batch. Deletions are EdgeIds of present edges (duplicates
  // within the batch are ignored); insertions are endpoint lists of
  // 1..max_rank distinct vertices. Deletions apply before insertions (§3.3).
  //
  // Contract: after update() returns, M is a valid maximal matching of the
  // live edge set, and every structural invariant listed in the class
  // comment holds (MatchingChecker::check passes). Against an oblivious
  // adversary — update sequences fixed without seeing Config::seed — the
  // paper bounds, whp over the seed:
  //   * amortized work per update: O(alpha^8 L^2 log^2(alpha) log^7 N)
  //     (Theorem 4.16) — polylog(N) for fixed rank, and
  //   * depth per batch: O(L log(alpha) log^3 N) rounds regardless of the
  //     batch size (Theorem 4.4); BatchResult::rounds is that round count,
  //     BatchResult::work the element-operation count.
  // Determinism: for a fixed Config::seed and update sequence, the
  // resulting state and all counters are identical across thread counts
  // and schedules (all randomness is stateless indexed hashing).
  // An adaptive adversary (one that inspects the matching, e.g.
  // AdversarialMatchedDeleter) voids the work bound but never correctness.
  BatchResult update(std::span<const EdgeId> deletions,
                     std::span<const std::vector<Vertex>> insertions);

  // Convenience wrappers.
  BatchResult insert_batch(std::span<const std::vector<Vertex>> insertions) {
    return update({}, insertions);
  }
  BatchResult delete_batch(std::span<const EdgeId> deletions) {
    return update(deletions, {});
  }
  // Deletions given as endpoint sets instead of ids (resolved in canonical
  // sorted-unique id order, so id assignment stays deterministic across
  // matcher implementations fed the same stream). Every deletion must name
  // a present edge.
  BatchResult update_by_endpoints(
      std::span<const std::vector<Vertex>> deletions,
      std::span<const std::vector<Vertex>> insertions);

  // ---- inspection ----
  // All inspection accessors are O(1) unless noted, never allocate, and
  // are safe to call between updates (not from within parallel callbacks).
  const HyperedgeRegistry& graph() const { return reg_; }
  // O(r) expected hash lookup; endpoints need not be sorted.
  EdgeId find_edge(std::span<const Vertex> endpoints) const {
    return reg_.find(endpoints);
  }
  bool is_matched(EdgeId e) const {
    return e < eflags_.size() && (eflags_[e] & kMatched);
  }
  bool is_temp_deleted(EdgeId e) const {
    return e < eflags_.size() && (eflags_[e] & kTempDeleted);
  }
  size_t matching_size() const { return matching_size_; }
  // Materializes M, sorted ascending; O(edge capacity). Maximality makes
  // it a 1/r-approximation of the maximum matching (paper §2) — 1/2 for
  // ordinary graphs.
  std::vector<EdgeId> matching() const;
  // The endpoints of all matched hyperedges form a vertex cover of size at
  // most r times the minimum (paper §2). Sorted ascending.
  std::vector<Vertex> vertex_cover() const;
  Level vertex_level(Vertex v) const {
    return v < vhot_.size() ? vhot_.level(v) : kUnmatchedLevel;
  }
  EdgeId matched_edge_of(Vertex v) const {
    return v < vhot_.size() ? vhot_.matched(v) : kNoEdge;
  }
  Level edge_level(EdgeId e) const { return elevel_[e]; }

  // ---- concurrent read path (src/serve) ----
  // Batches processed so far; the epoch stamped onto published MatchViews.
  uint64_t batch_epoch() const { return batch_counter_; }
  // Builds an immutable snapshot of the current matching (per-vertex
  // matched edge + level, sorted matched-edge list with endpoints), stamped
  // with batch_epoch(), from scratch: O(V + E) — two lane copies, a scan
  // of every edge id's flags, and the endpoint copy of every matched edge
  // (parallelized on the pool). Must be called between updates (same rule
  // as the other inspection accessors). It is the reference the delta
  // capture below is checked against, and leaves the capture state alone.
  MatchView make_view() const;
  // The capture path (serve::MatchViewService::publish_now and the
  // engine's settle stage): writes the same snapshot make_view() builds
  // into `out`, reusing its vector capacity, and makes `out` the base of
  // the next capture. When `base` is the view the previous capture wrote
  // (same object, same epoch) and nothing invalidated it since, the
  // capture is a delta: base's lanes are copied, the vertices whose level
  // or matched edge changed since are patched in, and base's sorted
  // matched-edge CSR is merged with the edge ids whose matched status
  // changed or that were retired since — a memcpy plus O(Δ log Δ) work
  // instead of the O(V + E) build. Every other case takes the full build:
  // no base, a base that is not the last capture, `base == &out`, or a
  // base invalidated by load() / rebuild() / reset_to_empty(). `base` must
  // stay unmodified from its capture until this call returns. With
  // Config::check_invariants every delta is asserted equal to make_view().
  // Same between-updates calling rule.
  void make_view_into(MatchView& out, const MatchView* base = nullptr);
  // Installs `hook`, invoked at the very end of every update() — after all
  // invariants are restored (and after the optional invariant check), with
  // the batch's result — on the updater thread. One hook at a time; pass
  // nullptr to detach. MatchViewService uses this to publish a fresh view
  // per batch without the driver having to remember to.
  //
  // Hook registration is updater-thread-only (the hook slot is plain
  // state read by update()): the REQUIRES annotation makes every
  // registration site name the updater role explicitly.
  using PostBatchHook = std::function<void(const BatchResult&)>;
  void set_post_batch_hook(PostBatchHook hook) PDMM_REQUIRES(updater_role_) {
    post_batch_hook_ = std::move(hook);
  }

  // The single-updater capability: update()/update_by_endpoints(), hook
  // registration, and every other mutating entry point belong to one
  // logical updater thread at a time (the class has no internal locking).
  // update() asserts the role at entry — the documented trust boundary —
  // so code that merely drives updates needs no annotation; code that
  // touches updater-only state directly (the hook slot) must carry
  // PDMM_REQUIRES(updater_role()) and is machine-checked under `tidy`.
  const ThreadRole& updater_role() const
      PDMM_RETURN_CAPABILITY(updater_role_) {
    return updater_role_;
  }

  const Config& config() const { return cfg_; }
  const LevelScheme& scheme() const { return scheme_; }
  const MatcherStats& stats() const { return stats_; }
  const EpochStats& epoch_stats() const { return epochs_; }
  const CostCounters& cost() const { return cost_; }
  ThreadPool& pool() { return pool_; }

  // o~(v, l): edges v would own after rising to level l (§3.2.3).
  uint64_t o_tilde(Vertex v, Level l) const;

  // Forces the N-doubling rebuild now (also triggered automatically).
  void rebuild();

  // --- snapshot / restore (core/snapshot.cpp) ---
  // Serializes the matcher state as versioned text: Config, scheme and RNG
  // counters, every edge with its level, owner, flags and responsible edge,
  // the free-list order, the vertex bound and the D-deletion budgets. The
  // leveling structures are sets that load() derives from the edges:
  // vertex levels and matched edges, O(v), A(v, l), D(e) and S_l. Their
  // member order is not state, because no decision reads it. A matcher
  // constructed with the same Config that load()s the snapshot continues
  // *bit-identically* to the original instance: the same save() bytes and
  // BatchResults after every later batch. Cumulative statistics (stats(),
  // epoch_stats(), cost()) are not part of the state and reset on load.
  //
  // save() returns false when the output stream failed (disk full, closed
  // pipe, ...) — the written bytes must then be discarded, they are not a
  // usable snapshot. load() validates its input exhaustively (see
  // SnapshotError): strict parsing, then the restored state must pass
  // MatchingChecker::violation, the same invariant oracle the tests run
  // after every batch. On failure the matcher is reset to the pristine
  // empty state of a freshly constructed instance, so it remains fully
  // usable.
  // Known bound of that contract: hostile declared sizes are rejected by
  // domain caps and a bad_alloc guard, but an absurd in-domain bound can
  // still be OOM-killed (not reported) on kernels that overcommit —
  // checkpoint CRCs (src/persist) are the integrity layer that keeps
  // accidental corruption from ever reaching those bounds.
  [[nodiscard]] bool save(std::ostream& out) const;
  [[nodiscard]] SnapshotError load(std::istream& in);
  // Resets to the state of a freshly constructed instance (empty graph,
  // epoch 0, scheme from Config::initial_capacity). load() calls this on
  // failure; persist::recover() calls it to discard a checkpoint it
  // loaded but then rejected.
  void reset_to_empty();

 private:
  friend class MatchingChecker;
  friend struct MemberOrderShuffle;  // tests/test_member_order.cpp

  // Per-edge flag bits.
  static constexpr uint8_t kMatched = 1;
  static constexpr uint8_t kTempDeleted = 2;

  // The member array of D(e). A member is appended on insert and erased by
  // its stored index (the dslot_ lane), the last member moving into the
  // hole — no search, no hash index.
  using EdgeList = SmallVector<EdgeId, 4>;

  // Cold per-vertex container. The hot scalars (level, matched edge,
  // S_l membership mask) live in the vhot_ SoA arrays (core/vertex_soa.h)
  // so the settle/refresh loops stream dense lanes, and the set sizes in
  // the vcnt_ count lane; verts_ holds only what those loops never touch.
  // MatchingChecker cross-validates the layouts stay mirror-consistent.
  struct VertexState {
    // adj(v): every structured edge at v, slot-addressed like D(e). Which
    // of the paper's sets an edge is in is read from its lanes: O(v) when
    // eowner_[e] == v, else A(v, elevel_[e]). Eight members live inline
    // (low-degree vertices almost never have more), so the common
    // structural update chases no heap pointer.
    SmallVector<EdgeId, 8> adj;
  };

  struct LevelMove {
    Vertex v;
    Level to;
  };

  // One per-vertex container mutation of a batch structural phase: add
  // (insert phase) or drop (delete phases) edge e in adj(u), counted in
  // O(u) or A(u, lvl). u is e's j-th endpoint, so the record names its
  // eslot_ entry. u == kNoVertex marks the empty slot of an edge of rank
  // below max_rank.
  struct StructMut {
    Vertex u = kNoVertex;
    EdgeId e = kNoEdge;
    Level lvl = 0;
    uint8_t is_owner = 0;
    uint8_t j = 0;
  };

  // Mutation record of apply_level_moves: an edge at vertex u moves from
  // u's count bucket `from` to bucket `to` as levels change (see
  // bucket()). u == kNoVertex marks an empty slot, or an edge that stays
  // in its set.
  struct MoveMut {
    Vertex u = kNoVertex;
    uint32_t from = 0, to = 0;
  };

  // Batch-scoped scratch arena: every buffer a hot phase needs, reused
  // across calls. Buffers are grouped by the (non-reentrant) routine that
  // owns them; routines that call each other use disjoint groups. The
  // id-indexed lanes hold their "unset" value between uses: each user
  // resets exactly the entries it set by re-walking them.
  //
  // Measured at n = 2^13, k = 256 (churn, 1 thread), a steady-state
  // update() makes about 9 heap allocations (tests/test_alloc_budget.cpp
  // holds it at 12 or fewer); none comes from here once the buffers have
  // grown. What still allocates is adj(v) spilling past its inline
  // storage, new D sets and the three BatchResult vectors, each reserved
  // once. The undecided sets are per-level vectors that keep their
  // capacity from batch to batch.
  struct Scratch {
    // update(): classified deletions, inserted ids, and the radix sort
    // buffer of the batch-diff replay
    std::vector<EdgeId> dels, del_unmatched, del_temp, del_matched, new_ids;
    // update_by_endpoints: the resolved deletions, which update() then
    // copies into `dels`
    std::vector<EdgeId> endpoint_dels;
    std::vector<EdgeId> eager_queue;  // drain_eager's reinsertion batch
    std::vector<std::pair<EdgeId, int8_t>> journal_buf;
    // Per-vertex flag, |V|-indexed, 0 between uses: marks the vertices a
    // structural apply touched (apply_struct_muts, apply_level_moves) and
    // B membership in refresh_settle_sets. See vertex_flags().
    std::vector<uint8_t> vflag;
    // apply_struct_muts / apply_level_moves: the vertices whose S_l mask
    // can have changed, each once, in first-seen order
    std::vector<Vertex> touched;
    // apply_level_moves
    std::vector<EdgeId> affected;
    std::vector<MoveMut> move_muts;
    // Per edge id, 0 between uses: dedupes apply_level_moves' affected
    // edges (and checks the structural batches' ids in debug builds).
    std::vector<uint8_t> eflag;
    // insert_edges_into_structures / remove_edges_from_structures
    std::vector<StructMut> struct_muts;
    // refresh_s_membership_all
    std::vector<uint64_t> s_deltas;
    // process_level_step1 / phase_insert / rebuild
    std::vector<Vertex> u_nodes;
    std::vector<EdgeId> candidates, free_edges;
    std::vector<LevelMove> moves;
    StaticMMScratch luby;  // static_maximal_matching's lanes and buffers
    StaticMMResult luby_out;
    // settle machinery (grand_random_settle / subsubsettle)
    std::vector<Vertex> settle_b, settle_kept;
    std::vector<EdgeId> settle_eprime, settle_marked, settle_lifted;
    std::vector<EdgeId> settle_eprime_buf;  // E'-filter double buffer
    std::vector<EdgeId> settle_h_set;       // E' at settle start
    std::vector<EdgeId> settle_kicked;      // kicked this iteration
    std::vector<Vertex> settle_h;       // h(e) per edge id, or kNoVertex
    std::vector<uint32_t> marked_deg;   // marked edges per vertex, or 0
    std::vector<EdgeId> lifted_at;      // lifted edge per vertex, or kNoEdge
    std::vector<uint8_t> kicked_flag;   // per edge id: kicked, or 0
    std::vector<EdgeId> adopted;  // E' edges temp-deleted this iteration
    // shared pack flag buffer (single pack in flight at a time)
    std::vector<uint8_t> pack_flags;
    // parallel_sort merge buffers for id/vertex sorts
    std::vector<uint32_t> sort_buf;
  };

  // ---- update pipeline phases (matcher.cpp) ----
  void phase_delete_unmatched(const std::vector<EdgeId>& edges);
  void phase_delete_temp(const std::vector<EdgeId>& edges);
  void phase_delete_matched(const std::vector<EdgeId>& edges);
  void level_sweep();
  void process_level_step1(Level l);
  void phase_insert(const std::vector<EdgeId>& fresh_ids);
  // Matches within `free_edges` (all endpoints unmatched) by Luby's static
  // MM (Theorem 2.2); the winners join M at level 0 and their endpoints
  // are appended to scratch_.moves.
  void match_free_edges(std::span<const EdgeId> free_edges, uint64_t seed);

  // ---- settle machinery (settle.cpp) ----
  void grand_random_settle(Level l);
  // One subsubsettle iteration over B and E', with h(e) in
  // scratch_.settle_h; returns number of edges lifted.
  size_t subsubsettle(Level l, uint32_t phase_i, uint64_t iter_salt,
                      std::vector<Vertex>& b,
                      std::vector<EdgeId>& e_prime);
  // Refreshes B (drop settled/over-threshold vertices) and filters E' down
  // to the still-live owned edges of the surviving B. During a settle all
  // level moves are rises to l, so no edge ever *enters* an O~(v,l) — the
  // fresh E' is always a subset of the old one, and an order-preserving
  // filter of e_prime replaces the old full rebuild+sort. The edges kicked
  // out of M this iteration (scratch_.kicked_flag) are dropped too: their
  // stale elevel_/eowner_ would otherwise pass the filter predicate.
  void refresh_settle_sets(Level l, std::vector<Vertex>& b,
                           std::vector<EdgeId>& e_prime);
  // Settles the residue `b` one vertex at a time, in vertex-id order.
  void sequential_settle_fallback(Level l, std::vector<Vertex> b);
  void random_settle_single(Vertex v, Level l);
  // Kicks the matched edges (other than `keep`) of keep's endpoints out of
  // M, queues them for reinsertion, and appends them to `kicked`. Shared by
  // the parallel lift and the sequential random-settle so the two paths
  // cannot diverge again.
  void kick_conflicting_matches(EdgeId keep, std::vector<EdgeId>& kicked);
  // Adds e to M at level l — or, when e is already matched and merely rises
  // with its endpoints, restarts its epoch accounting at l.
  void lift_edge(EdgeId e, Level l);
  // Eager mode: alternate settle sweeps with reinsertion of the edges those
  // sweeps kicked, until no residue remains (bounded by max_eager_sweeps).
  void drain_eager();
  size_t total_undecided() const;

  // ---- structural primitives ----
  // Moves each (v, to) to its new level, then restores edge ownership and
  // level invariants for every affected edge (batch set-level, Claim 3.4).
  // `moves` names each vertex at most once (a release assert), in any
  // order; the order reaches no state byte. Callers pass scratch_.moves.
  void apply_level_moves(const std::vector<LevelMove>& moves);
  // Batch insertion/removal of many edges: a read-only parallel pass
  // computes one StructMut per (edge, endpoint), one serial pass applies
  // them in record order, and S_l membership refreshes once over the
  // touched vertex set. Both take duplicate-free ids in any order: the
  // order only decides container member order, which is not state.
  void insert_edges_into_structures(const std::vector<EdgeId>& ids);
  void remove_edges_from_structures(const std::vector<EdgeId>& ids);
  // Shared tail of the two batch phases above: apply the records of
  // scratch_.struct_muts in order, skipping empty slots, then refresh S_l
  // over the touched vertices.
  void apply_struct_muts(bool insert);
  void remove_edge_from_structures(EdgeId e);
  // Slot-addressed membership. eslot(e, j) is e's index in adj(u), u its
  // j-th endpoint. attach appends e to adj(u), records the index and
  // counts e in u's bucket for (owner, l); detach reads the index, moves
  // adj(u)'s last member into the hole, points that member's own entry at
  // u (found among its <= r endpoints) there, and uncounts e. A level move
  // leaves adj(u) alone and only moves the count (apply_level_moves).
  uint32_t& eslot(EdgeId e, uint32_t j) {
    return eslot_[size_t{e} * reg_.max_rank() + j];
  }
  void attach(EdgeId e, uint32_t j, Vertex u, bool owner, Level l);
  void detach(EdgeId e, uint32_t j, Vertex u, bool owner, Level l);
  // The count lane: L + 2 entries per vertex, bucket 0 = |O(v)|, bucket
  // 1 + l = |A(v, l)|. Its stride follows L, which changes only where
  // verts_ is emptied, so grow_vertices sizes it and every clear of verts_
  // clears it.
  static uint32_t bucket(bool owner, Level l) {
    return owner ? 0 : 1 + static_cast<uint32_t>(l);
  }
  size_t count_stride() const {
    return static_cast<size_t>(scheme_.top_level()) + 2;
  }
  uint32_t* counts(Vertex v) { return vcnt_.data() + v * count_stride(); }
  const uint32_t* counts(Vertex v) const {
    return vcnt_.data() + v * count_stride();
  }
  // Undecided sets: a vertex is only ever in the set of its own level, at
  // undecided_pos_[v]. Inserting a present member and erasing an absent
  // one are no-ops.
  void undecided_insert(Vertex v);
  void undecided_erase(Vertex v);
  std::vector<EdgeId> collect_o_tilde(Vertex v, Level l) const;
  void append_o_tilde(Vertex v, Level l, std::vector<EdgeId>& out) const;

  // ---- matching bookkeeping ----
  void set_matched(EdgeId e, Level l);      // epoch create
  void set_unmatched(EdgeId e, bool natural);  // epoch end; marks undecided
  void dissolve_d(EdgeId e);                // queue D(e) for reinsertion
  void temp_delete(EdgeId e, EdgeId responsible);
  // temp_delete minus the structural removal, for callers that batch the
  // removals (the subsubsettle adoption step).
  void temp_delete_bookkeep(EdgeId e, EdgeId responsible);

  // ---- misc ----
  // Whether v can belong to any S_l: l(v) < L and deg(v) = |adj(v)| >=
  // alpha^(l(v)+1). Every S_l that could hold v has l > l(v), so threshold
  // alpha^l >= alpha^(l(v)+1), and o~(v, l) never exceeds deg(v); a vertex
  // failing this test has mask 0, exactly.
  bool may_rise(Vertex v) const;
  // o~(v, l) profile of v, summed from its count lane, folded into the S_l
  // membership bitmask; 0 without reading the lane when !may_rise(v).
  uint64_t compute_s_mask(Vertex v) const;
  void refresh_s_membership(Vertex v);
  // Refresh over a duplicate-free vertex set in any order: one parallel
  // pass recomputes the masks (disjoint per-vertex writes), and one serial
  // pass applies the rare flips straight from the mask deltas.
  void refresh_s_membership_all(const std::vector<Vertex>& touched);
  // scratch_.vflag, grown to the vertex bound; scratch_.eflag, grown to
  // the id bound.
  std::vector<uint8_t>& vertex_flags();
  std::vector<uint8_t>& edge_flags();
  // Whether `ids` names no edge twice (debug checks; uses edge_flags()).
  bool distinct_ids(const std::vector<EdgeId>& ids);
  void grow_vertices(Vertex bound);
  void grow_edges(size_t bound);
  void maybe_rebuild(size_t incoming_updates);
  void reset_state();

  // ---- view capture (matcher.cpp) ----
  void build_view_full(MatchView& out) const;
  void build_view_delta(MatchView& out, const MatchView& base);
  // Appends this batch's journal to the capture base's edge log.
  void log_view_changes();
  // No usable capture base any more: the next capture is a full build.
  void forget_view_base();
  // Snapshot-loader internals (core/snapshot.cpp).
  SnapshotError load_validated(std::istream& in);
  void reset_cumulative_stats();
  uint64_t settle_rng_stream() const;

  Config cfg_;
  ThreadPool& pool_;
  LevelScheme scheme_;
  IndexedRng rng_;
  HyperedgeRegistry reg_;

  std::vector<VertexState> verts_;
  VertexHotSoA vhot_;  // hot scalars, resized in lockstep with verts_
  std::vector<uint32_t> vcnt_;  // count lane, count_stride() per vertex
  std::vector<Level> elevel_;
  std::vector<Vertex> eowner_;
  std::vector<uint8_t> eflags_;
  std::vector<EdgeId> eresp_;  // temp-deleted -> responsible matched edge
  std::vector<std::unique_ptr<EdgeList>> edge_d_;  // D(e) for matched e
  std::vector<uint32_t> epoch_d_deleted_;  // budget consumed this epoch
  // Member positions, kNoSlot where never set: eslot_ holds max_rank
  // entries per edge id, each an index in adj(u) (see eslot()), dslot_ a
  // temp-deleted edge's index in D(eresp_[f]).
  static constexpr uint32_t kNoSlot = ~uint32_t{0};
  std::vector<uint32_t> eslot_;
  std::vector<uint32_t> dslot_;

  // S_l, index 0..L. A vertex can sit in several S_l, so these keep
  // IndexedSet's search-based erase. Each vertex's memberships are cached
  // as a bitmask in vhot_, and a refresh reads a vertex's count lane only
  // when may_rise() (its level and |adj(v)|) leaves a bit possible.
  std::vector<IndexedSet> s_;
  // Undecided nodes by level, 0..L, and each vertex's position in its
  // level's list (kNoSlot: not undecided).
  std::vector<std::vector<Vertex>> undecided_;
  std::vector<uint32_t> undecided_pos_;

  // Batch-scoped scratch.
  std::vector<EdgeId> reinsert_queue_;  // kicked edges + dissolved D members
  // Journal of matching transitions this batch: +1 matched, -1 unmatched,
  // 0 id retired (edge deleted, id recyclable). At batch end it is sorted
  // stably by edge id and replayed to produce the newly_matched /
  // newly_unmatched diff with correct handling of ids recycled within the
  // batch.
  std::vector<std::pair<EdgeId, int8_t>> batch_journal_;

  // The base of the next delta capture: the view the last make_view_into()
  // wrote (null: none usable) and its epoch, plus every edge id the batch
  // journals named since — ids whose matched status changed or that were
  // retired, with repeats. The vertex half of the change set is vhot_'s
  // change log, which runs exactly while `view` is set.
  struct ViewBase {
    const MatchView* view = nullptr;
    uint64_t epoch = 0;
    std::vector<EdgeId> changed_edges;
  };
  ViewBase view_base_;

  uint64_t batch_counter_ = 0;
  uint64_t settle_counter_ = 0;

  size_t matching_size_ = 0;
  uint64_t updates_used_ = 0;

  Scratch scratch_;

  ThreadRole updater_role_;
  PostBatchHook post_batch_hook_ PDMM_GUARDED_BY(updater_role_);

  MatcherStats stats_;
  EpochStats epochs_;
  CostCounters cost_;
};

}  // namespace pdmm
