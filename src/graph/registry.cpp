#include "graph/registry.h"

#include <algorithm>
#include <utility>

#include "util/rng.h"

namespace pdmm {
namespace {

// A canonical key names each endpoint once.
void assert_distinct(std::span<const Vertex> sorted) {
  for (size_t i = 1; i < sorted.size(); ++i) {
    PDMM_ASSERT_MSG(sorted[i] != sorted[i - 1],
                    "hyperedge endpoints must be distinct");
  }
}

}  // namespace

HyperedgeRegistry::HyperedgeRegistry(uint32_t max_rank)
    : max_rank_(max_rank), slots_(kMinSlots), mask_(kMinSlots - 1) {
  PDMM_ASSERT(max_rank >= 1 && max_rank <= kMaxRankLimit);
}

// Insertion sort: ranks are tiny, and a rank-2 edge costs one compare.
std::span<const Vertex> HyperedgeRegistry::canonical(
    std::span<const Vertex> eps, Vertex* out) const {
  PDMM_ASSERT(!eps.empty() && eps.size() <= static_cast<size_t>(max_rank_));
  for (size_t i = 0; i < eps.size(); ++i) {
    const Vertex v = eps[i];
    size_t j = i;
    for (; j > 0 && out[j - 1] > v; --j) out[j] = out[j - 1];
    out[j] = v;
  }
  return {out, eps.size()};
}

uint32_t HyperedgeRegistry::tag_of(std::span<const Vertex> sorted) {
  uint64_t h = sorted.size();
  for (Vertex v : sorted) h = splitmix64(h ^ v);
  return static_cast<uint32_t>(h);
}

bool HyperedgeRegistry::endpoints_equal(
    EdgeId e, std::span<const Vertex> sorted) const {
  const auto other = endpoints(e);
  return std::equal(sorted.begin(), sorted.end(), other.begin(), other.end());
}

size_t HyperedgeRegistry::probe(uint32_t tag,
                                std::span<const Vertex> sorted) const {
  size_t i = tag & mask_;
  while (slots_[i].id != kNoEdge &&
         !(slots_[i].tag == tag && endpoints_equal(slots_[i].id, sorted))) {
    i = (i + 1) & mask_;
  }
  return i;
}

void HyperedgeRegistry::reserve(size_t extra) {
  size_t want = slots_.size();
  while (2 * (num_alive_ + extra) > want) want *= 2;
  if (want == slots_.size()) return;
  // A tag names its home slot, so it can address no more than 2^32 slots.
  PDMM_ASSERT_MSG(want <= (size_t{1} << 32),
                  "registry index past the 2^32 slots its tags address");
  const std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(want));
  mask_ = slots_.size() - 1;
  for (const Slot& s : old) {
    if (s.id == kNoEdge) continue;
    size_t i = s.tag & mask_;
    while (slots_[i].id != kNoEdge) i = (i + 1) & mask_;
    slots_[i] = s;
  }
}

void HyperedgeRegistry::place(EdgeId id, std::span<const Vertex> sorted,
                              uint32_t tag, size_t slot) {
  std::copy(sorted.begin(), sorted.end(),
            endpoints_.begin() + static_cast<size_t>(id) * max_rank_);
  deg_[id] = static_cast<uint8_t>(sorted.size());
  slots_[slot] = {tag, id};
  ++num_alive_;
  vertex_bound_ = std::max(vertex_bound_, sorted.back() + 1);
}

EdgeId HyperedgeRegistry::insert_tagged(std::span<const Vertex> sorted,
                                        uint32_t tag) {
  const size_t slot = probe(tag, sorted);
  if (slots_[slot].id != kNoEdge) return kNoEdge;  // duplicate

  EdgeId id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<EdgeId>(deg_.size());
    deg_.push_back(0);
    endpoints_.resize(endpoints_.size() + max_rank_, kNoVertex);
  }
  place(id, sorted, tag, slot);
  return id;
}

EdgeId HyperedgeRegistry::insert(std::span<const Vertex> eps) {
  Vertex tmp[kMaxRankLimit];
  const auto sorted = canonical(eps, tmp);
  assert_distinct(sorted);
  reserve(1);
  return insert_tagged(sorted, tag_of(sorted));
}

void HyperedgeRegistry::insert_batch(std::span<const std::vector<Vertex>> keys,
                                     std::span<EdgeId> ids) {
  PDMM_ASSERT(ids.size() == keys.size());
  reserve(keys.size());
  // ids[i] holds keys[i]'s tag until pass 2 writes the id over it.
  static_assert(sizeof(EdgeId) == sizeof(uint32_t));
  Vertex tmp[kMaxRankLimit];
  for (size_t i = 0; i < keys.size(); ++i) {
    const auto sorted = canonical(keys[i], tmp);
    assert_distinct(sorted);
    ids[i] = tag_of(sorted);
    prefetch_home(ids[i]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ids[i] = insert_tagged(canonical(keys[i], tmp), ids[i]);
  }
}

EdgeId HyperedgeRegistry::find(std::span<const Vertex> eps) const {
  Vertex tmp[kMaxRankLimit];
  const auto sorted = canonical(eps, tmp);
  return slots_[probe(tag_of(sorted), sorted)].id;
}

void HyperedgeRegistry::find_batch(std::span<const std::vector<Vertex>> keys,
                                   std::span<EdgeId> ids) const {
  PDMM_ASSERT(ids.size() == keys.size());
  // As in insert_batch, ids[i] holds the tag until pass 2.
  Vertex tmp[kMaxRankLimit];
  for (size_t i = 0; i < keys.size(); ++i) {
    ids[i] = tag_of(canonical(keys[i], tmp));
    prefetch_home(ids[i]);
  }
  for (size_t i = 0; i < keys.size(); ++i) {
    ids[i] = slots_[probe(ids[i], canonical(keys[i], tmp))].id;
  }
}

void HyperedgeRegistry::erase_tagged(EdgeId e, uint32_t tag) {
  PDMM_ASSERT(alive(e));
  size_t hole = tag & mask_;
  while (slots_[hole].id != e) {
    PDMM_ASSERT(slots_[hole].id != kNoEdge);
    hole = (hole + 1) & mask_;
  }
  // Backward-shift deletion: a later member of the probe run moves into the
  // hole when its home lies cyclically at or before the hole, i.e. when its
  // probe distance is at least the hole's distance back from it.
  for (size_t j = (hole + 1) & mask_; slots_[j].id != kNoEdge;
       j = (j + 1) & mask_) {
    const size_t home = slots_[j].tag & mask_;
    if (((j - home) & mask_) >= ((j - hole) & mask_)) {
      slots_[hole] = slots_[j];
      hole = j;
    }
  }
  slots_[hole] = Slot{};
  deg_[e] = 0;
  free_ids_.push_back(e);
  --num_alive_;
}

void HyperedgeRegistry::erase(EdgeId e) {
  PDMM_ASSERT(alive(e));
  erase_tagged(e, tag_of(endpoints(e)));
}

void HyperedgeRegistry::erase_batch(std::span<const EdgeId> ids) {
  erase_tags_.resize(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    PDMM_ASSERT(alive(ids[i]));
    erase_tags_[i] = tag_of(endpoints(ids[i]));
    prefetch_home(erase_tags_[i]);
  }
  // A repeated id is dead by its second erase, which asserts.
  for (size_t i = 0; i < ids.size(); ++i) erase_tagged(ids[i], erase_tags_[i]);
}

void HyperedgeRegistry::restore_begin(size_t id_bound) {
  endpoints_.assign(id_bound * max_rank_, kNoVertex);
  deg_.assign(id_bound, 0);
  free_ids_.clear();
  num_alive_ = 0;
  vertex_bound_ = 0;
  slots_ = std::vector<Slot>(kMinSlots);
  mask_ = kMinSlots - 1;
}

bool HyperedgeRegistry::restore_slot(EdgeId id,
                                     std::span<const Vertex> sorted) {
  PDMM_ASSERT(id < deg_.size() && deg_[id] == 0);
  PDMM_ASSERT(!sorted.empty() &&
              sorted.size() <= static_cast<size_t>(max_rank_));
  PDMM_ASSERT(std::is_sorted(sorted.begin(), sorted.end()));
  reserve(1);
  const uint32_t tag = tag_of(sorted);
  const size_t slot = probe(tag, sorted);
  if (slots_[slot].id != kNoEdge) return false;  // duplicate endpoint set
  place(id, sorted, tag, slot);
  return true;
}

void HyperedgeRegistry::restore_free_list(std::span<const EdgeId> free_ids) {
  free_ids_.assign(free_ids.begin(), free_ids.end());
}

std::vector<EdgeId> HyperedgeRegistry::all_edges() const {
  std::vector<EdgeId> out;
  out.reserve(num_alive_);
  for (EdgeId e = 0; e < deg_.size(); ++e) {
    if (deg_[e] != 0) out.push_back(e);
  }
  return out;
}

}  // namespace pdmm
