// Random-number generation for pdmm.
//
// Two kinds of generators are used:
//  * Sequential generators (Xoshiro256**) for workload generation and for
//    the sequential baseline matcher.
//  * Stateless, index-addressable hashing generators (SplitMix64 over a
//    (seed, stream, index) triple) for parallel phases: every parallel task
//    derives its randomness purely from its logical index, so results are
//    deterministic for a fixed seed regardless of thread schedule.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>

#include "util/assert.h"

namespace pdmm {

// SplitMix64 finalizer. Good avalanche; the standard constant-time mixer.
constexpr uint64_t splitmix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Mix of three words into one; used to address randomness by
// (seed, stream/round, index).
constexpr uint64_t hash_mix(uint64_t a, uint64_t b, uint64_t c = 0) {
  return splitmix64(splitmix64(splitmix64(a) ^ b) ^ c);
}

// Xoshiro256**: fast, high-quality sequential PRNG (Blackman & Vigna).
class Xoshiro256 {
 public:
  using result_type = uint64_t;

  explicit Xoshiro256(uint64_t seed = 0x853c49e6748fea9bULL) {
    // Seed the state via SplitMix64 as recommended by the authors.
    uint64_t x = seed;
    for (auto& w : s_) {
      x += 0x9e3779b97f4a7c15ULL;
      w = splitmix64(x);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<uint64_t>::max();
  }

  uint64_t operator()() {
    const uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
  }

  // Unbiased uniform integer in [0, bound) via Lemire's method.
  uint64_t below(uint64_t bound) {
    PDMM_DASSERT(bound > 0);
    unsigned __int128 m = static_cast<unsigned __int128>((*this)()) * bound;
    auto lo = static_cast<uint64_t>(m);
    if (lo < bound) {
      const uint64_t threshold = (0 - bound) % bound;
      while (lo < threshold) {
        m = static_cast<unsigned __int128>((*this)()) * bound;
        lo = static_cast<uint64_t>(m);
      }
    }
    return static_cast<uint64_t>(m >> 64);
  }

  // Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

 private:
  static constexpr uint64_t rotl(uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }
  uint64_t s_[4];
};

// Stateless generator addressed by (seed, stream, index). Each call is one
// SplitMix64 chain; no shared mutable state, so it is safe and deterministic
// under any parallel schedule.
class IndexedRng {
 public:
  // The draws of one stream. Its key is the chain's first two finalizers,
  // splitmix64(splitmix64(seed) ^ stream), so each draw costs one finalizer
  // where IndexedRng's own calls cost three, and draws the same value:
  // Stream::raw(index) == IndexedRng::raw(stream, index) by construction.
  class Stream {
   public:
    explicit Stream(uint64_t key) : key_(key) {}
    uint64_t raw(uint64_t index) const { return splitmix64(key_ ^ index); }
    uint64_t below(uint64_t index, uint64_t bound) const {
      return below_of(raw(index), bound);
    }
    double uniform(uint64_t index) const { return uniform_of(raw(index)); }

   private:
    uint64_t key_;
  };

  explicit IndexedRng(uint64_t seed) : seed_(seed) {}

  Stream stream(uint64_t stream) const {
    return Stream(splitmix64(splitmix64(seed_) ^ stream));
  }

  uint64_t raw(uint64_t stream, uint64_t index) const {
    return hash_mix(seed_, stream, index);
  }

  // Uniform integer in [0, bound). Multiply-shift; bias is O(bound/2^64).
  uint64_t below(uint64_t stream, uint64_t index, uint64_t bound) const {
    return below_of(raw(stream, index), bound);
  }

  // Uniform double in [0, 1).
  double uniform(uint64_t stream, uint64_t index) const {
    return uniform_of(raw(stream, index));
  }

  // Bernoulli with probability p.
  bool bernoulli(uint64_t stream, uint64_t index, double p) const {
    return uniform(stream, index) < p;
  }

  uint64_t seed() const { return seed_; }

 private:
  static uint64_t below_of(uint64_t r, uint64_t bound) {
    PDMM_DASSERT(bound > 0);
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(r) * bound) >> 64);
  }
  static double uniform_of(uint64_t r) {
    return static_cast<double>(r >> 11) * 0x1.0p-53;
  }

  uint64_t seed_;
};

// Approximate Zipf(s) sampler over [0, n) using the rejection-inversion
// method of Hörmann & Derflinger. Used by skewed workload generators.
class ZipfSampler {
 public:
  ZipfSampler(uint64_t n, double s) : n_(n), s_(s) {
    PDMM_ASSERT(n >= 1);
    PDMM_ASSERT(s >= 0.0);
    h_x1_ = h(1.5) - std::exp(-s_ * std::log(1.0));
    h_n_ = h(static_cast<double>(n_) + 0.5);
    dist_span_ = h_x1_ - h_n_;
  }

  // Returns a value in [0, n), rank 0 most popular.
  uint64_t operator()(Xoshiro256& rng) const {
    if (s_ == 0.0) return rng.below(n_);
    while (true) {
      const double u = h_n_ + rng.uniform() * dist_span_;
      const double x = h_inv(u);
      auto k = static_cast<uint64_t>(x + 0.5);
      if (k < 1) k = 1;
      if (k > n_) k = n_;
      const double kd = static_cast<double>(k);
      if (u >= h(kd + 0.5) - std::exp(-s_ * std::log(kd))) return k - 1;
    }
  }

 private:
  double h(double x) const {
    // integral of x^-s
    if (s_ == 1.0) return std::log(x);
    return std::exp((1.0 - s_) * std::log(x)) / (1.0 - s_);
  }
  double h_inv(double x) const {
    if (s_ == 1.0) return std::exp(x);
    return std::exp(std::log((1.0 - s_) * x) / (1.0 - s_));
  }

  uint64_t n_;
  double s_;
  double h_x1_, h_n_, dist_span_;
};

}  // namespace pdmm
