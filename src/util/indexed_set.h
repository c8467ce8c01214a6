// IndexedSet: an unordered set of 32-bit ids with
//   * O(1) expected insert / erase / contains,
//   * O(1) uniform random sampling and O(1) indexed access,
//   * contiguous iteration over members (cache-friendly retrieve()),
//   * zero heap allocation while small.
//
// It erases by member: a linear scan while small, a probe of its hash
// index past kLinearMax. The matcher keeps it only for the rising sets
// S_l, where a vertex can sit in several sets at once and the flips are
// rare; its per-vertex O(v) and A(v,l) sets, D(e) and the undecided sets
// record each member's position in a lane and erase by that position
// instead (core/matcher.h, docs/ARCHITECTURE.md "Slot-addressed
// containers"). The sequential baseline and the greedy baseline still use
// it for everything.
//
// Small-set regime: the member array lives inline (no heap) up to
// kInlineCap elements, and the hash index is only materialized once the set
// outgrows kLinearMax — below that, contains/erase are linear scans, which
// beat hashing on the tiny sets that dominate per-vertex state. The index
// is an optimization only: member order (and therefore every observable
// behaviour) is identical whether or not it is engaged.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "util/assert.h"
#include "util/flat_map.h"

namespace pdmm {

class IndexedSet {
  static constexpr uint32_t kInlineCap = 4;   // members stored inline
  static constexpr uint32_t kLinearMax = 8;   // hash index built above this

 public:
  using value_type = uint32_t;

  IndexedSet() = default;

  IndexedSet(const IndexedSet& o) { copy_from(o); }

  IndexedSet(IndexedSet&& o) noexcept { steal(std::move(o)); }

  IndexedSet& operator=(const IndexedSet& o) {
    if (this == &o) return *this;
    clear();
    copy_from(o);
    return *this;
  }

  IndexedSet& operator=(IndexedSet&& o) noexcept {
    if (this == &o) return *this;
    if (heap_) delete[] heap_;
    steal(std::move(o));
    return *this;
  }

  ~IndexedSet() {
    if (heap_) delete[] heap_;
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }

  bool contains(uint32_t x) const { return find_index(x) != kNotFound; }

  // Inserts x if absent; returns true if inserted.
  bool insert(uint32_t x) {
    if (find_index(x) != kNotFound) return false;
    if (size_ == cap_) grow();
    data()[size_] = x;
    if (pos_) pos_->insert(x, size_);
    ++size_;
    if (!pos_ && size_ > kLinearMax) build_index();
    return true;
  }

  // Erases x if present; returns true if erased. Swap-with-last keeps the
  // member array dense.
  bool erase(uint32_t x) {
    const uint32_t i = find_index(x);
    if (i == kNotFound) return false;
    uint32_t* d = data();
    const uint32_t last = d[size_ - 1];
    d[i] = last;
    --size_;
    if (pos_) {
      pos_->erase(x);
      if (last != x) *pos_->find(last) = i;
      if (size_ == 0) pos_.reset();
    }
    return true;
  }

  // Releases all storage (back to the inline, index-free representation).
  void clear() {
    if (heap_) {
      delete[] heap_;
      heap_ = nullptr;
      cap_ = kInlineCap;
    }
    size_ = 0;
    pos_.reset();
  }

  // Dense view of all members; invalidated by insert/erase.
  std::span<const uint32_t> items() const { return {data(), size_}; }

  uint32_t at(size_t i) const {
    PDMM_DASSERT(i < size_);
    return data()[i];
  }

  // Uniform member given an external random index in [0, size()).
  uint32_t sample(uint64_t random_index) const {
    PDMM_DASSERT(size_ > 0);
    return data()[random_index % size_];
  }

 private:
  static constexpr uint32_t kNotFound = ~uint32_t{0};

  uint32_t* data() { return heap_ ? heap_ : inline_; }
  const uint32_t* data() const { return heap_ ? heap_ : inline_; }

  uint32_t find_index(uint32_t x) const {
    if (pos_) {
      const uint32_t* p = pos_->find(x);
      return p ? *p : kNotFound;
    }
    const uint32_t* d = data();
    for (uint32_t i = 0; i < size_; ++i) {
      if (d[i] == x) return i;
    }
    return kNotFound;
  }

  void grow() {
    const uint32_t new_cap = cap_ * 2;
    auto* fresh = new uint32_t[new_cap];
    std::memcpy(fresh, data(), sizeof(uint32_t) * size_);
    if (heap_) delete[] heap_;
    heap_ = fresh;
    cap_ = new_cap;
  }

  void build_index() {
    pos_ = std::make_unique<FlatPosMap<uint32_t>>();
    const uint32_t* d = data();
    for (uint32_t i = 0; i < size_; ++i) pos_->insert(d[i], i);
  }

  void copy_from(const IndexedSet& o) {
    if (o.size_ > cap_) {
      heap_ = new uint32_t[o.cap_];
      cap_ = o.cap_;
    }
    std::memcpy(data(), o.data(), sizeof(uint32_t) * o.size_);
    size_ = o.size_;
    if (o.pos_) build_index();
  }

  void steal(IndexedSet&& o) {
    heap_ = o.heap_;
    size_ = o.size_;
    cap_ = o.cap_;
    pos_ = std::move(o.pos_);
    if (!o.heap_) std::memcpy(inline_, o.inline_, sizeof(inline_));
    o.heap_ = nullptr;
    o.size_ = 0;
    o.cap_ = kInlineCap;
  }

  uint32_t* heap_ = nullptr;  // engaged when cap_ > kInlineCap
  uint32_t size_ = 0;
  uint32_t cap_ = kInlineCap;
  uint32_t inline_[kInlineCap];
  // Hash index from member to its position in the dense array; engaged only
  // for sets past kLinearMax (purely a speed tradeoff, never semantics).
  std::unique_ptr<FlatPosMap<uint32_t>> pos_;
};

}  // namespace pdmm
