// FlatPosMap: a minimal open-addressing hash map from an integer key to a
// 32-bit position, used as the index half of IndexedSet. Design goals:
//  * zero heap allocation while empty,
//  * O(1) expected insert/erase/find,
//  * power-of-two capacity with linear probing and backward-shift deletion
//    (no tombstones, so load stays honest under heavy churn).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "util/assert.h"
#include "util/bits.h"
#include "util/rng.h"

namespace pdmm {

template <typename Key>
class FlatPosMap {
  static_assert(std::is_unsigned_v<Key>);
  static constexpr Key kEmpty = ~Key{0};

 public:
  FlatPosMap() = default;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  void clear() {
    keys_.clear();
    vals_.clear();
    size_ = 0;
    mask_ = 0;
  }

  // Inserts key -> pos. Key must not be present (enforced in debug builds).
  void insert(Key k, uint32_t pos) {
    PDMM_DASSERT(k != kEmpty);
    if (size_ + 1 > capacity() - capacity() / 4) grow();
    size_t i = slot(k);
    while (keys_[i] != kEmpty) {
      PDMM_DASSERT(keys_[i] != k);
      i = (i + 1) & mask_;
    }
    keys_[i] = k;
    vals_[i] = pos;
    ++size_;
  }

  // Returns pointer to the position of k, or nullptr.
  const uint32_t* find(Key k) const {
    if (size_ == 0) return nullptr;
    size_t i = slot(k);
    while (keys_[i] != kEmpty) {
      if (keys_[i] == k) return &vals_[i];
      i = (i + 1) & mask_;
    }
    return nullptr;
  }

  uint32_t* find(Key k) {
    return const_cast<uint32_t*>(std::as_const(*this).find(k));
  }

  bool contains(Key k) const { return find(k) != nullptr; }

  // Erases k (must be present). Backward-shift deletion keeps probe
  // sequences intact without tombstones.
  void erase(Key k) {
    PDMM_DASSERT(size_ > 0);
    size_t i = slot(k);
    while (keys_[i] != k) {
      PDMM_DASSERT(keys_[i] != kEmpty);
      i = (i + 1) & mask_;
    }
    size_t j = i;
    while (true) {
      j = (j + 1) & mask_;
      if (keys_[j] == kEmpty) break;
      const size_t home = slot(keys_[j]);
      // Move keys_[j] back into the hole at i if its home slot precedes i in
      // the probe order (the standard Robin-Hood-style shift condition).
      const bool wraps = j < i;
      const bool movable = wraps ? (home <= i && home > j) : (home <= i || home > j);
      if (movable) {
        keys_[i] = keys_[j];
        vals_[i] = vals_[j];
        i = j;
      }
    }
    keys_[i] = kEmpty;
    --size_;
    maybe_shrink();
  }

 private:
  size_t capacity() const { return keys_.size(); }

  size_t slot(Key k) const {
    return static_cast<size_t>(splitmix64(static_cast<uint64_t>(k))) & mask_;
  }

  void grow() { rehash(capacity() == 0 ? 8 : capacity() * 2); }

  void maybe_shrink() {
    if (capacity() > 8 && size_ < capacity() / 8) rehash(capacity() / 2);
    else if (size_ == 0 && capacity() > 0) clear();
  }

  void rehash(size_t new_cap) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<uint32_t> old_vals = std::move(vals_);
    keys_.assign(new_cap, kEmpty);
    vals_.assign(new_cap, 0);
    mask_ = new_cap - 1;
    for (size_t i = 0; i < old_keys.size(); ++i) {
      if (old_keys[i] == kEmpty) continue;
      size_t j = slot(old_keys[i]);
      while (keys_[j] != kEmpty) j = (j + 1) & mask_;
      keys_[j] = old_keys[i];
      vals_[j] = old_vals[i];
    }
  }

  std::vector<Key> keys_;
  std::vector<uint32_t> vals_;
  size_t size_ = 0;
  size_t mask_ = 0;
};

}  // namespace pdmm
