// PhaseDict: a parallel dictionary with batch insert / erase / retrieve,
// the interface the paper assumes from Gil–Matias–Vishkin [GMV91] (§2).
//
// Implementation: open addressing with linear probing over power-of-two
// capacity; concurrent same-phase operations synchronize with CAS on the
// key slot (the phase-concurrent discipline of Shun & Blelloch). Within one
// batch only one operation kind runs (insert-only, erase-only, or
// lookup-only), which is exactly how the matcher uses it. Erase uses
// tombstones; the table rebuilds when live+dead load crosses a threshold,
// so space stays linear in the number of live elements and probe chains
// stay O(1) expected — matching the [GMV91] guarantees up to the usual
// whp-vs-expected bookkeeping.
//
// Keys are 64-bit, value type is a trivially copyable payload. Key
// 0xFFFF...F is reserved as "empty", 0xFFFF...E as "tombstone".
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/thread_pool.h"
#include "util/assert.h"
#include "util/bits.h"
#include "util/rng.h"

namespace pdmm {

template <typename Value>
class PhaseDict {
  static constexpr uint64_t kEmpty = ~uint64_t{0};
  static constexpr uint64_t kTomb = ~uint64_t{0} - 1;

 public:
  explicit PhaseDict(size_t expected = 16) { init(expected); }

  size_t size() const { return live_; }
  size_t capacity() const { return keys_.size(); }
  // Table rebuilds since construction (growth, shrink or tombstone purge).
  size_t rebuilds() const { return rebuilds_; }

  // ---- batch operations (each is one phase) ----

  // Inserts (keys[i], values[i]). Keys must be distinct within the batch and
  // absent from the table; duplicate semantics are the caller's job (the
  // matcher dedups batches first). Returns nothing; O(k) work, O(1) depth
  // rounds + a possible rebuild.
  void batch_insert(ThreadPool& pool, const std::vector<uint64_t>& keys,
                    const std::vector<Value>& values) {
    PDMM_ASSERT(keys.size() == values.size());
    reserve_for(live_ + keys.size());
    parallel_for(pool, keys.size(),
                 [&](size_t i) { insert_one(keys[i], values[i]); });
    live_ += keys.size();
    // Conservative: counts every claim as a fresh slot, also one that
    // reused a tombstone (the batch does not sum insert_one's results).
    dirty_ += keys.size();
  }

  // Erases keys[i]; every key must be present. Tombstones keep probe chains
  // valid; a rebuild reclaims them when they accumulate.
  void batch_erase(ThreadPool& pool, const std::vector<uint64_t>& keys) {
    parallel_for(pool, keys.size(), [&](size_t i) { erase_one(keys[i]); });
    PDMM_ASSERT(live_ >= keys.size());
    live_ -= keys.size();
    maybe_shrink();
  }

  // Looks up keys[i]; out[i] = value or `miss` when absent.
  void batch_lookup(ThreadPool& pool, const std::vector<uint64_t>& keys,
                    std::vector<Value>& out, Value miss) const {
    out.resize(keys.size());
    parallel_for(pool, keys.size(), [&](size_t i) {
      const Value* v = find(keys[i]);
      out[i] = v ? *v : miss;
    });
  }

  // retrieve(): dense snapshot of all live (key, value) pairs; O(capacity)
  // work which is O(live) by the load-factor invariant. Per-block staging
  // buffers are indexed by the block id the runtime passes through — never
  // re-derived from a stride assumption about the callee's chunking.
  std::vector<std::pair<uint64_t, Value>> retrieve(ThreadPool& pool) const {
    const size_t cap = keys_.size();
    const size_t grain = resolve_grain(cap, kAutoGrain, kDefaultGrain);
    const size_t nblocks = (cap + grain - 1) / grain;
    std::vector<std::vector<std::pair<uint64_t, Value>>> per_block(nblocks);
    parallel_for_blocks(pool, cap, grain, [&](size_t blk, size_t b, size_t e) {
      auto& out = per_block[blk];
      for (size_t i = b; i < e; ++i) {
        // mo: relaxed — retrieve is its own phase; all mutating phases
        // completed before the pool barrier that launched this one.
        const uint64_t k = keys_[i].load(std::memory_order_relaxed);
        if (k != kEmpty && k != kTomb) out.emplace_back(k, vals_[i]);
      }
    });
    std::vector<std::pair<uint64_t, Value>> out;
    out.reserve(live_);
    for (auto& blk : per_block)
      out.insert(out.end(), blk.begin(), blk.end());
    return out;
  }

  // ---- serial single-element operations (setup/testing convenience) ----

  const Value* find(uint64_t key) const {
    PDMM_DASSERT(key < kTomb);
    size_t i = slot(key);
    while (true) {
      // mo: acquire — pairs with insert_one's acq_rel CAS so a hit also
      // sees vals_[i]... except for same-phase insert/lookup races, which
      // the phase-concurrent discipline forbids; acquire keeps the serial
      // (cross-phase, single-threaded) path correct without a barrier.
      const uint64_t k = keys_[i].load(std::memory_order_acquire);
      if (k == key) return &vals_[i];
      if (k == kEmpty) return nullptr;
      i = (i + 1) & mask_;
    }
  }

  bool contains(uint64_t key) const { return find(key) != nullptr; }

  void insert(uint64_t key, const Value& v) {
    reserve_for(live_ + 1);
    dirty_ += insert_one(key, v);
    ++live_;
  }

  void erase(uint64_t key) {
    erase_one(key);
    PDMM_ASSERT(live_ >= 1);
    --live_;
    maybe_shrink();
  }

  void clear() {
    init(16);
    live_ = dirty_ = 0;
  }

 private:
  void init(size_t expected) {
    const size_t cap = next_pow2(std::max<size_t>(16, expected * 2));
    keys_ = std::vector<std::atomic<uint64_t>>(cap);
    // mo: relaxed — init/rebuild runs single-threaded between phases; the
    // next phase's pool barrier publishes the cleared table.
    for (auto& k : keys_) k.store(kEmpty, std::memory_order_relaxed);
    vals_.assign(cap, Value{});
    mask_ = cap - 1;
  }

  size_t slot(uint64_t key) const {
    return static_cast<size_t>(splitmix64(key)) & mask_;
  }

  // Returns whether the claimed slot was empty (not a tombstone).
  bool insert_one(uint64_t key, const Value& v) {
    PDMM_DASSERT(key < kTomb);
    size_t i = slot(key);
    while (true) {
      // mo: relaxed — optimistic probe; the CAS below re-validates the
      // slot, so a stale read only costs a retry.
      uint64_t k = keys_[i].load(std::memory_order_relaxed);
      if (k == kEmpty || k == kTomb) {
        // mo: acq_rel — release publishes the claim to same-phase probers
        // pushed past this slot; acquire orders the subsequent vals_ write
        // after the claim (lookups of this key happen in a later phase).
        if (keys_[i].compare_exchange_strong(k, key,
                                             std::memory_order_acq_rel)) {
          vals_[i] = v;
          return k == kEmpty;
        }
        // Lost the race for this slot; re-inspect it (k was reloaded).
        continue;
      }
      PDMM_DASSERT(k != key);
      i = (i + 1) & mask_;
    }
  }

  void erase_one(uint64_t key) {
    size_t i = slot(key);
    while (true) {
      // mo: relaxed — erase-only phase: keys are immutable during it (only
      // key→tombstone transitions happen, and each key is erased once).
      const uint64_t k = keys_[i].load(std::memory_order_relaxed);
      PDMM_ASSERT_MSG(k != kEmpty, "PhaseDict::erase of absent key");
      if (k == key) {
        // mo: release — conservative publish of the tombstone; readers run
        // in a later phase behind the pool barrier.
        keys_[i].store(kTomb, std::memory_order_release);
        return;
      }
      i = (i + 1) & mask_;
    }
  }

  void reserve_for(size_t want_live) {
    // Keep live+tombstones under 70% of capacity.
    if ((dirty_ + (want_live - live_)) * 10 < capacity() * 7) return;
    rebuild(want_live);
  }

  void maybe_shrink() {
    if (capacity() > 32 && live_ * 8 < capacity()) rebuild(live_);
  }

  void rebuild(size_t want_live) {
    std::vector<std::pair<uint64_t, Value>> entries;
    entries.reserve(live_);
    for (size_t i = 0; i < keys_.size(); ++i) {
      // mo: relaxed — rebuild runs single-threaded between phases.
      const uint64_t k = keys_[i].load(std::memory_order_relaxed);
      if (k != kEmpty && k != kTomb) entries.emplace_back(k, vals_[i]);
    }
    init(std::max(want_live, entries.size()));
    for (auto& [k, v] : entries) insert_one(k, v);
    dirty_ = entries.size();
    ++rebuilds_;
  }

  std::vector<std::atomic<uint64_t>> keys_;
  std::vector<Value> vals_;
  size_t mask_ = 0;
  size_t live_ = 0;   // live entries
  size_t dirty_ = 0;  // live + tombstoned since last rebuild
  size_t rebuilds_ = 0;
};

}  // namespace pdmm
