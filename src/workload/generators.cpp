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
    if (id == kNoEdge) continue;  // duplicate of a live edge
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

ChurnStream::ChurnStream(const Options& opt)
    : opt_(opt),
      rng_(opt.seed),
      zipf_(opt.n, opt.zipf_s),
      live_(opt.rank) {
  PDMM_ASSERT(opt.n >= opt.rank);
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

SlidingWindowStream::SlidingWindowStream(const Options& opt)
    : opt_(opt), rng_(opt.seed), live_(opt.rank) {
  PDMM_ASSERT(opt.n >= opt.rank);
}

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

WindowChurnStream::WindowChurnStream(const Options& opt)
    : opt_(opt), rng_(opt.seed), live_(opt.rank) {
  PDMM_ASSERT(opt.n >= opt.rank);
  PDMM_ASSERT(opt.churn >= 0.0 && opt.churn <= 1.0);
  PDMM_ASSERT(opt.window >= 1);
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

PowerLawStream::PowerLawStream(const Options& opt)
    : opt_(opt),
      rng_(opt.seed),
      zipf_(opt.n, opt.s),
      live_(opt.rank) {
  PDMM_ASSERT(opt.n >= opt.rank);
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

OscillationStream::OscillationStream(const Options& opt)
    : opt_(opt), rng_(opt.seed), live_(opt.rank) {
  PDMM_ASSERT(opt.n >= opt.rank);
  PDMM_ASSERT(opt.core_edges >= 1);
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

AdversarialMatchedDeleter::AdversarialMatchedDeleter(const Options& opt)
    : opt_(opt), rng_(opt.seed), live_(opt.rank) {}

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
