// SmallVector<T, N>: a vector with N elements of inline storage, spilling to
// the heap only when it grows past N. It is the dynamic matcher's member
// array for each vertex's incidence array adj(v) (which holds O(v) and
// the A(v,l)) and each D(e). These are almost always tiny — low-degree
// vertices dominate every realistic graph — so keeping the first few
// elements inside the owning struct removes a pointer chase and a heap
// allocation from the hottest structural operations. The matcher erases a
// member by its recorded index (the last member moves into the hole), so
// no search runs here.
//
// Supports exactly the operations those containers need: push_back /
// emplace_back, pop_back, back, operator[], clear, iteration, and value
// semantics (copy and move). Growth doubles capacity; shrinking never
// returns to inline storage (the containers that care call clear()).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

#include "util/assert.h"

namespace pdmm {

template <typename T, size_t N>
class SmallVector {
  static_assert(N >= 1);

 public:
  SmallVector() = default;

  SmallVector(const SmallVector& o) { append_all(o); }

  SmallVector(SmallVector&& o) noexcept { steal(std::move(o)); }

  SmallVector& operator=(const SmallVector& o) {
    if (this == &o) return *this;
    clear();
    append_all(o);
    return *this;
  }

  SmallVector& operator=(SmallVector&& o) noexcept {
    if (this == &o) return *this;
    destroy_storage();
    steal(std::move(o));
    return *this;
  }

  ~SmallVector() { destroy_storage(); }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T* data() { return data_ ? data_ : inline_ptr(); }
  const T* data() const { return data_ ? data_ : inline_ptr(); }

  T* begin() { return data(); }
  T* end() { return data() + size_; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size_; }

  T& operator[](size_t i) {
    PDMM_DASSERT(i < size_);
    return data()[i];
  }
  const T& operator[](size_t i) const {
    PDMM_DASSERT(i < size_);
    return data()[i];
  }

  T& back() {
    PDMM_DASSERT(size_ > 0);
    return data()[size_ - 1];
  }
  const T& back() const {
    PDMM_DASSERT(size_ > 0);
    return data()[size_ - 1];
  }

  // Unlike std::vector, the argument must not alias an element of this
  // vector (growth destroys the old storage before constructing from it).
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }

  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == cap_) grow();
    T* p = data() + size_;
    ::new (static_cast<void*>(p)) T(std::forward<Args>(args)...);
    ++size_;
    return *p;
  }

  void pop_back() {
    PDMM_DASSERT(size_ > 0);
    data()[size_ - 1].~T();
    --size_;
  }

  // Destroys all elements and releases heap storage (back to inline).
  void clear() {
    destroy_storage();
    data_ = nullptr;
    size_ = 0;
    cap_ = static_cast<uint32_t>(N);
  }

 private:
  T* inline_ptr() { return std::launder(reinterpret_cast<T*>(inline_)); }
  const T* inline_ptr() const {
    return std::launder(reinterpret_cast<const T*>(inline_));
  }

  void destroy_storage() {
    T* p = data();
    for (size_t i = 0; i < size_; ++i) p[i].~T();
    if (data_) ::operator delete(static_cast<void*>(data_));
  }

  void append_all(const SmallVector& o) {
    for (const T& v : o) emplace_back(v);
  }

  // Takes o's storage; o is left empty. Inline elements are moved one by
  // one, a heap block is stolen wholesale.
  void steal(SmallVector&& o) {
    if (o.data_) {
      data_ = o.data_;
      size_ = o.size_;
      cap_ = o.cap_;
    } else {
      data_ = nullptr;
      size_ = 0;
      cap_ = static_cast<uint32_t>(N);
      for (size_t i = 0; i < o.size_; ++i) {
        ::new (static_cast<void*>(inline_ptr() + i)) T(std::move(o.data()[i]));
        o.data()[i].~T();
      }
      size_ = o.size_;
    }
    o.data_ = nullptr;
    o.size_ = 0;
    o.cap_ = static_cast<uint32_t>(N);
  }

  void grow() {
    const uint32_t new_cap = cap_ * 2;
    T* fresh = static_cast<T*>(::operator new(sizeof(T) * new_cap));
    T* old = data();
    for (size_t i = 0; i < size_; ++i) {
      ::new (static_cast<void*>(fresh + i)) T(std::move(old[i]));
      old[i].~T();
    }
    if (data_) ::operator delete(static_cast<void*>(data_));
    data_ = fresh;
    cap_ = new_cap;
  }

  T* data_ = nullptr;  // heap block when spilled, else inline_ is live
  uint32_t size_ = 0;
  uint32_t cap_ = static_cast<uint32_t>(N);
  alignas(T) unsigned char inline_[N * sizeof(T)];
};

}  // namespace pdmm
