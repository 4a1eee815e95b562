// Shared vocabulary of the runtime benchmark: the monotonic clock every span
// is stamped with, percentile helpers, and the result record one run fills.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Nanoseconds on std::chrono::steady_clock since the first call in this
/// process. All spans (generator, deliver hooks, transport decorator) use it,
/// so they compare without conversion.
inline std::uint64_t now_ns() {
  static const auto epoch = std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

/// Nearest-rank percentile (p in [0,1]) of an unsorted sample; 0 if empty.
/// Unlike metrics::Summary it takes compact element types: a traced run
/// holds millions of 4-byte span durations.
template <typename T>
double percentile(std::vector<T> v, double p) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One tenth of the measured window: the decay curve of a run.
struct Tenth {
  double blocks_per_s = 0.0;
  double commit_p50_ms = 0.0;
};

struct RunResult {
  bool correct = false;
  std::string violation;  ///< first failed correctness check, if any
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Per-layer names this workload does not exercise (reported as 0).
  std::vector<std::string> not_exercised;
  std::vector<Tenth> tenths;
  /// Per-layer counters with their bases ("name", value, "per <base>").
  std::vector<std::string> counter_lines;
  /// Self time per stage, from the recorded spans (traced runs).
  std::vector<std::string> self_time_lines;
};

}  // namespace perfbench
