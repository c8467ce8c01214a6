// Sample statistics for the benchmark harnesses and pdmm_serve's report.
#pragma once

#include <algorithm>
#include <cstddef>
#include <vector>

#include "util/assert.h"

namespace pdmm {

// Stores all samples; exact percentiles for benchmark reports.
class PercentileStats {
 public:
  void add(double x) {
    samples_.push_back(x);
    sorted_ = false;
  }

  size_t count() const { return samples_.size(); }

  double percentile(double p) {
    PDMM_ASSERT(p >= 0.0 && p <= 100.0);
    if (samples_.empty()) return 0.0;
    if (!sorted_) {
      std::sort(samples_.begin(), samples_.end());
      sorted_ = true;
    }
    const double rank = p / 100.0 * static_cast<double>(samples_.size() - 1);
    const auto lo = static_cast<size_t>(rank);
    const size_t hi = std::min(lo + 1, samples_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return samples_[lo] * (1.0 - frac) + samples_[hi] * frac;
  }

  double median() { return percentile(50.0); }
  double mean() const {
    if (samples_.empty()) return 0.0;
    double s = 0.0;
    for (double x : samples_) s += x;
    return s / static_cast<double>(samples_.size());
  }
  double max() {
    return samples_.empty() ? 0.0 : percentile(100.0);
  }

 private:
  std::vector<double> samples_;
  bool sorted_ = false;
};

// Order statistics of a small sample — the repetitions of one benchmark
// sweep point. Median is the usual midpoint-interpolated value.
struct MinMedMax {
  double min = 0.0;
  double median = 0.0;
  double max = 0.0;
};

inline MinMedMax min_med_max(std::vector<double> xs) {
  if (xs.empty()) return {};
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  const double med =
      (n % 2) ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
  return {xs.front(), med, xs.back()};
}

}  // namespace pdmm
