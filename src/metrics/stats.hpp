// Small statistics helpers for experiment harnesses.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

namespace dr::metrics {

class Summary {
 public:
  void add(double x) { values_.push_back(x); }
  std::size_t count() const { return values_.size(); }

  double mean() const {
    if (values_.empty()) return 0.0;
    double s = 0.0;
    for (double v : values_) s += v;
    return s / static_cast<double>(values_.size());
  }

  double min() const {
    return values_.empty() ? 0.0 : *std::min_element(values_.begin(), values_.end());
  }
  double max() const {
    return values_.empty() ? 0.0 : *std::max_element(values_.begin(), values_.end());
  }

  /// p in [0, 1]; nearest-rank on a sorted copy.
  double percentile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> sorted = values_;
    std::sort(sorted.begin(), sorted.end());
    const std::size_t idx = std::min(
        sorted.size() - 1,
        static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
    return sorted[idx];
  }

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double> values_;
};

}  // namespace dr::metrics
