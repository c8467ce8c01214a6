#include "workload/generators.h"

#include <algorithm>

namespace pdmm {

std::vector<EdgeId> apply_batch(MatcherBase& m, const Batch& b) {
  std::vector<EdgeId> dels;
  dels.reserve(b.deletions.size());
  for (const auto& eps : b.deletions) {
    const EdgeId e = m.graph().find(eps);
    PDMM_ASSERT_MSG(e != kNoEdge, "stream deleted an edge the matcher lacks");
    dels.push_back(e);
  }
  // Sorted-unique deletion order keeps EdgeId assignment identical across
  // matcher implementations (they all erase in this order).
  std::sort(dels.begin(), dels.end());
  return m.apply(dels, b.insertions);
}

uint64_t distinct_edges(uint64_t n, uint32_t rank) {
  if (rank > n) return 0;
  // C(n, i) = C(n, i - 1) * (n - i + 1) / i is exact at every step and
  // grows with i up to n / 2, so the first step past UINT64_MAX saturates.
  const uint64_t k = std::min<uint64_t>(rank, n - rank);
  unsigned __int128 c = 1;
  for (uint64_t i = 1; i <= k; ++i) {
    c = c * (n - i + 1) / i;
    if (c > UINT64_MAX) return UINT64_MAX;
  }
  return static_cast<uint64_t>(c);
}

namespace {

uint64_t add_sat(uint64_t a, uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

uint64_t mul_sat(uint64_t a, uint64_t b) {
  const unsigned __int128 p = static_cast<unsigned __int128>(a) * b;
  return p > UINT64_MAX ? UINT64_MAX : static_cast<uint64_t>(p);
}

// The rule every stream shares: edges of rank >= 1 on at least that many
// vertices, and room for `peak` of them live at once.
ShapeError room(Vertex n, uint32_t rank, uint64_t peak) {
  const auto str = [](uint64_t v) { return std::to_string(v); };
  if (rank == 0) return {"rank", "an edge needs at least one endpoint"};
  if (n < rank) {
    return {"n", "a rank-" + str(rank) + " edge needs " + str(rank) +
                     " distinct vertices"};
  }
  const uint64_t have = distinct_edges(n, rank);
  if (have < peak) {
    return {"n", "the stream can keep " + str(peak) +
                     " edges live at once, and there are only " + str(have) +
                     " distinct rank-" + str(rank) + " edges on " + str(n) +
                     " vertices"};
  }
  return {};
}

// churn_next inserts at or below lo (reaching lo + 1) and inside the band
// (reaching hi); a deletion that finds only this batch's insertions turns
// into an insertion, so one batch can leave all batch_size of its own
// edges live.
uint64_t churn_peak(uint64_t target, uint64_t batch_size) {
  const uint64_t lo = target - target / 10;
  return std::max({lo + 1, add_sat(target, target / 10), batch_size});
}

// Window streams insert before they evict, and never evict an edge of the
// running batch.
uint64_t window_peak(uint64_t window, uint64_t batch_size) {
  return add_sat(std::max(window, batch_size), 1);
}

// A constructor asserts the part of its shape that holds for any batches.
template <typename Options>
Options checked(const Options& opt, const ShapeError& e) {
  PDMM_ASSERT_MSG(!e, e.why.c_str());
  return opt;
}

}  // namespace

// ---- LiveSet ----

std::vector<Vertex> LiveSet::insert_random(Xoshiro256& rng, Vertex n,
                                           uint32_t rank) {
  PDMM_ASSERT(n >= rank);
  std::vector<Vertex> eps(rank);
  while (true) {
    // Sample `rank` distinct vertices by rejection (rank << n always here).
    for (auto& v : eps) v = static_cast<Vertex>(rng.below(n));
    std::sort(eps.begin(), eps.end());
    if (std::adjacent_find(eps.begin(), eps.end()) != eps.end()) continue;
    const EdgeId id = mirror_.insert(eps);
    if (id == kNoEdge) {
      // A duplicate of a live edge. Once every distinct edge is live every
      // draw is one: stop here instead of spinning.
      PDMM_ASSERT_MSG(live_.size() < distinct_edges(n, rank),
                      "every distinct edge is live; the stream's shape "
                      "needs more vertices");
      continue;
    }
    live_.insert(id);
    return eps;
  }
}

std::vector<Vertex> LiveSet::insert_exact(std::span<const Vertex> eps) {
  const EdgeId id = mirror_.insert(eps);
  if (id == kNoEdge) return {};
  live_.insert(id);
  return {eps.begin(), eps.end()};
}

std::vector<Vertex> LiveSet::erase_random(Xoshiro256& rng,
                                          const IndexedSet* exclude) {
  PDMM_ASSERT(!live_.empty());
  EdgeId id = live_.sample(rng());
  if (exclude) {
    int attempts = 0;
    while (exclude->contains(id)) {
      if (++attempts > 64 || exclude->size() >= live_.size()) return {};
      id = live_.sample(rng());
    }
  }
  std::vector<Vertex> eps(mirror_.endpoints(id).begin(),
                          mirror_.endpoints(id).end());
  live_.erase(id);
  mirror_.erase(id);
  return eps;
}

void LiveSet::erase_exact(std::span<const Vertex> eps) {
  const EdgeId id = mirror_.find(eps);
  PDMM_ASSERT(id != kNoEdge);
  live_.erase(id);
  mirror_.erase(id);
}

namespace {

// Shared bounded-walk skeleton of ChurnStream and PowerLawStream: always
// insert below 90% of the target, always delete above 110%, and flip a
// delete_fraction coin inside the band. `draw` produces candidate
// endpoints for the insert path; candidates may collide with live edges,
// so insertion retries a few times and then falls back to uniform-random
// so the stream never stalls. Edges inserted earlier in the same batch are
// never deleted by it (batches apply deletions first).
template <typename DrawEndpoints>
Batch churn_next(LiveSet& live, Xoshiro256& rng, Vertex n, uint32_t rank,
                 size_t target_edges, double delete_fraction,
                 size_t batch_size, DrawEndpoints&& draw) {
  Batch b;
  const size_t lo = target_edges - target_edges / 10;
  const size_t hi = target_edges + target_edges / 10;
  IndexedSet inserted_this_batch;
  for (size_t i = 0; i < batch_size; ++i) {
    bool do_delete;
    if (live.size() <= lo) {
      do_delete = false;
    } else if (live.size() >= hi) {
      do_delete = true;
    } else {
      do_delete = rng.uniform() < delete_fraction;
    }
    if (do_delete) {
      std::vector<Vertex> victim = live.erase_random(rng,
                                                     &inserted_this_batch);
      if (!victim.empty()) {
        b.deletions.push_back(std::move(victim));
        continue;
      }
      // Only same-batch insertions remain deletable; insert instead.
    }
    {
      std::vector<Vertex> eps;
      for (int attempt = 0; attempt < 8 && eps.empty(); ++attempt) {
        eps = live.insert_exact(draw());
      }
      if (eps.empty()) eps = live.insert_random(rng, n, rank);
      inserted_this_batch.insert(live.find(eps));
      b.insertions.push_back(std::move(eps));
    }
  }
  return b;
}

}  // namespace

// ---- ChurnStream ----

ShapeError ChurnStream::check(const Options& opt, size_t batch_size,
                              uint64_t total) {
  return room(opt.n, opt.rank,
              std::min(total, churn_peak(opt.target_edges, batch_size)));
}

ChurnStream::ChurnStream(const Options& opt)
    : opt_(checked(opt, check(opt, 0, 0))),
      rng_(opt.seed),
      zipf_(opt.n, opt.zipf_s),
      live_(opt.rank) {
  PDMM_ASSERT(opt.delete_fraction >= 0.0 && opt.delete_fraction <= 1.0);
}

std::vector<Vertex> ChurnStream::draw_endpoints() {
  std::vector<Vertex> eps(opt_.rank);
  while (true) {
    for (auto& v : eps) {
      v = opt_.zipf_s == 0.0 ? static_cast<Vertex>(rng_.below(opt_.n))
                             : static_cast<Vertex>(zipf_(rng_));
    }
    std::sort(eps.begin(), eps.end());
    if (std::adjacent_find(eps.begin(), eps.end()) == eps.end()) return eps;
  }
}

Batch ChurnStream::next(size_t batch_size) {
  return churn_next(live_, rng_, opt_.n, opt_.rank, opt_.target_edges,
                    opt_.delete_fraction, batch_size,
                    [this] { return draw_endpoints(); });
}

// ---- SlidingWindowStream ----

ShapeError SlidingWindowStream::check(const Options& opt,
                                      size_t batch_size, uint64_t total) {
  return room(opt.n, opt.rank,
              std::min(total, window_peak(opt.window, batch_size)));
}

SlidingWindowStream::SlidingWindowStream(const Options& opt)
    : opt_(checked(opt, check(opt, 0, 0))), rng_(opt.seed), live_(opt.rank) {}

Batch SlidingWindowStream::next(size_t batch_size) {
  Batch b;
  // Edges inserted in this batch are never evicted in the same batch
  // (deletions apply first); with batch_size > window the window overflows
  // transiently until the next batch.
  const size_t batch_start = fifo_.size();
  for (size_t i = 0; i < batch_size; ++i) {
    std::vector<Vertex> eps = live_.insert_random(rng_, opt_.n, opt_.rank);
    fifo_.push_back(eps);
    b.insertions.push_back(std::move(eps));
    if (fifo_.size() - fifo_head_ > opt_.window && fifo_head_ < batch_start) {
      std::vector<Vertex>& old = fifo_[fifo_head_++];
      live_.erase_exact(old);
      b.deletions.push_back(std::move(old));
    }
  }
  // Reclaim the consumed prefix occasionally.
  if (fifo_head_ > (1u << 16) && fifo_head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
  return b;
}

// ---- WindowChurnStream ----

ShapeError WindowChurnStream::check(const Options& opt, size_t batch_size,
                                    uint64_t total) {
  if (opt.window == 0) {
    return {"window", "the window must hold at least one edge"};
  }
  return room(opt.n, opt.rank,
              std::min(total, window_peak(opt.window, batch_size)));
}

WindowChurnStream::WindowChurnStream(const Options& opt)
    : opt_(checked(opt, check(opt, 0, 0))), rng_(opt.seed), live_(opt.rank) {
  PDMM_ASSERT(opt.churn >= 0.0 && opt.churn <= 1.0);
}

Batch WindowChurnStream::next(size_t batch_size) {
  Batch b;
  // Slots inserted in this batch are never deleted in the same batch
  // (deletions apply first); both the eviction scan and the random-age
  // churn stay below batch_start.
  const size_t batch_start = fifo_.size();
  for (size_t i = 0; i < batch_size; ++i) {
    if (fifo_head_ < batch_start && rng_.uniform() < opt_.churn) {
      // Delete a random-age window edge (retry over already-dead slots).
      for (int attempt = 0; attempt < 16; ++attempt) {
        const size_t idx =
            fifo_head_ + rng_.below(batch_start - fifo_head_);
        if (fifo_[idx].empty()) continue;
        live_.erase_exact(fifo_[idx]);
        --window_live_;
        b.deletions.push_back(std::move(fifo_[idx]));
        fifo_[idx].clear();
        break;
      }
    }
    std::vector<Vertex> eps = live_.insert_random(rng_, opt_.n, opt_.rank);
    fifo_.push_back(eps);
    ++window_live_;
    b.insertions.push_back(std::move(eps));
    while (window_live_ > opt_.window && fifo_head_ < batch_start) {
      std::vector<Vertex>& old = fifo_[fifo_head_++];
      if (old.empty()) continue;  // the churn path already deleted it
      live_.erase_exact(old);
      --window_live_;
      b.deletions.push_back(std::move(old));
    }
  }
  // Reclaim the consumed prefix occasionally.
  if (fifo_head_ > (1u << 16) && fifo_head_ * 2 > fifo_.size()) {
    fifo_.erase(fifo_.begin(),
                fifo_.begin() + static_cast<ptrdiff_t>(fifo_head_));
    fifo_head_ = 0;
  }
  return b;
}

// ---- PowerLawStream ----

ShapeError PowerLawStream::check(const Options& opt, size_t batch_size,
                                 uint64_t total) {
  return room(opt.n, opt.rank,
              std::min(total, churn_peak(opt.target_edges, batch_size)));
}

PowerLawStream::PowerLawStream(const Options& opt)
    : opt_(checked(opt, check(opt, 0, 0))),
      rng_(opt.seed),
      zipf_(opt.n, opt.s),
      live_(opt.rank) {
  PDMM_ASSERT(opt.s > 0.0);
  PDMM_ASSERT(opt.delete_fraction >= 0.0 && opt.delete_fraction <= 1.0);
}

std::vector<Vertex> PowerLawStream::draw_endpoints() {
  std::vector<Vertex> eps(opt_.rank);
  while (true) {
    // One hub endpoint, Zipf-ranked; the spokes stay uniform.
    eps[0] = static_cast<Vertex>(zipf_(rng_));
    for (size_t i = 1; i < eps.size(); ++i)
      eps[i] = static_cast<Vertex>(rng_.below(opt_.n));
    std::sort(eps.begin(), eps.end());
    if (std::adjacent_find(eps.begin(), eps.end()) == eps.end()) return eps;
  }
}

Batch PowerLawStream::next(size_t batch_size) {
  return churn_next(live_, rng_, opt_.n, opt_.rank, opt_.target_edges,
                    opt_.delete_fraction, batch_size,
                    [this] { return draw_endpoints(); });
}

// ---- OscillationStream ----

ShapeError OscillationStream::check(const Options& opt) {
  if (opt.core_edges == 0) {
    return {"core_edges", "the oscillating core needs at least one edge"};
  }
  return room(opt.n, opt.rank, add_sat(opt.background_edges, opt.core_edges));
}

OscillationStream::OscillationStream(const Options& opt)
    : opt_(checked(opt, check(opt))), rng_(opt.seed), live_(opt.rank) {
  // Generate background + core up front (the whole pattern is fixed before
  // the first batch — an oblivious adversary). live_ mirrors the state the
  // consumer will reach once the build batches have been emitted.
  pending_builds_.reserve(opt.background_edges + opt.core_edges);
  for (size_t i = 0; i < opt.background_edges; ++i) {
    pending_builds_.push_back(live_.insert_random(rng_, opt_.n, opt_.rank));
  }
  core_.reserve(opt.core_edges);
  for (size_t i = 0; i < opt.core_edges; ++i) {
    core_.push_back(live_.insert_random(rng_, opt_.n, opt_.rank));
    pending_builds_.push_back(core_.back());
  }
}

Batch OscillationStream::next(size_t batch_size) {
  Batch b;
  // Build phase: replay the pregenerated graph, batch_size edges at a time.
  if (build_cursor_ < pending_builds_.size()) {
    const size_t end =
        std::min(build_cursor_ + batch_size, pending_builds_.size());
    for (; build_cursor_ < end; ++build_cursor_) {
      b.insertions.push_back(pending_builds_[build_cursor_]);
    }
    return b;
  }
  // Oscillation: delete a stretch of the core, then reinsert exactly that
  // stretch, sweeping the cursor across the core in both half-cycles.
  const size_t end = std::min(cursor_ + batch_size, core_.size());
  for (size_t i = cursor_; i < end; ++i) {
    if (deleting_) {
      live_.erase_exact(core_[i]);
      b.deletions.push_back(core_[i]);
    } else {
      live_.insert_exact(core_[i]);
      b.insertions.push_back(core_[i]);
    }
  }
  cursor_ = end;
  if (cursor_ == core_.size()) {
    cursor_ = 0;
    deleting_ = !deleting_;
  }
  return b;
}

// ---- AdversarialMatchedDeleter ----

ShapeError AdversarialMatchedDeleter::check(const Options& opt,
                                            size_t batch_size,
                                            uint64_t total) {
  const uint64_t k = batch_size;
  const uint64_t degree = opt.rank == 0 || opt.n < opt.rank
                              ? 0
                              : distinct_edges(opt.n - 1, opt.rank - 1);
  const uint64_t grown =
      add_sat(mul_sat(mul_sat(opt.rank, k > 0 ? k - 1 : 0), degree), k);
  return room(opt.n, opt.rank, std::min(total, grown));
}

AdversarialMatchedDeleter::AdversarialMatchedDeleter(const Options& opt)
    : opt_(checked(opt, check(opt, 0, 0))), rng_(opt.seed), live_(opt.rank) {}

Batch AdversarialMatchedDeleter::next(const MatcherBase& m,
                                      size_t batch_size) {
  Batch b;
  // Delete up to batch_size currently-matched edges (the most expensive
  // deletions possible), replacing each with a fresh random edge.
  const auto all = m.graph().all_edges();
  size_t deleted = 0;
  for (EdgeId e : all) {
    if (deleted == batch_size) break;
    if (!m.is_matched(e)) continue;
    std::vector<Vertex> eps(m.graph().endpoints(e).begin(),
                            m.graph().endpoints(e).end());
    live_.erase_exact(eps);
    b.deletions.push_back(std::move(eps));
    ++deleted;
  }
  for (size_t i = 0; i < batch_size; ++i) {
    b.insertions.push_back(live_.insert_random(rng_, opt_.n, opt_.rank));
  }
  return b;
}

}  // namespace pdmm
