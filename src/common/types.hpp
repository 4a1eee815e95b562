// Core identifier and quorum types shared by every DAG-Rider module.
#pragma once

#include <cstdint>
#include <limits>

namespace dr {

/// Index of a process in the system, 0-based. The paper writes p_1..p_n;
/// we use 0..n-1 internally and render 1-based only in human-facing output.
using ProcessId = std::uint32_t;

/// Round number in the DAG. Round 0 holds the hardcoded genesis vertices.
using Round = std::uint64_t;

/// Wave number, 1-based as in the paper (wave w spans rounds 4(w-1)+1..4w).
using Wave = std::uint64_t;

/// Sequence number of an a_bcast call (the paper's r in a_bcast(m, r)).
using SlotId = std::uint64_t;

inline constexpr ProcessId kInvalidProcess =
    std::numeric_limits<ProcessId>::max();

/// Quorum arithmetic for n = 3f + 1.
struct Committee {
  std::uint32_t n = 0;  ///< total number of processes
  std::uint32_t f = 0;  ///< maximum tolerated Byzantine processes

  static constexpr Committee for_n(std::uint32_t n) {
    return Committee{n, (n - 1) / 3};
  }
  static constexpr Committee for_f(std::uint32_t f) {
    return Committee{3 * f + 1, f};
  }

  /// 2f + 1, the quorum used for round advancement and the commit rule.
  [[nodiscard]] constexpr std::uint32_t quorum() const { return 2 * f + 1; }
  /// f + 1, the intersection bound / coin reconstruction threshold.
  [[nodiscard]] constexpr std::uint32_t small_quorum() const { return f + 1; }
  /// n - 2f, the smallest vote count certain to intersect any 2f+1-sized
  /// strong-edge set (Bullshark's steady-state commit threshold). Equals
  /// small_quorum() when n = 3f+1; for committees with slack (n > 3f+1) the
  /// f+1 shortcut would NOT intersect, so this is the safe general form.
  [[nodiscard]] constexpr std::uint32_t vote_quorum() const { return n - 2 * f; }
  [[nodiscard]] constexpr bool valid() const { return n >= 1 && n > 3 * f; }
};

/// Named quorum helpers for call sites that hold a process count rather than
/// a Committee. These four functions (plus the Committee members above) are
/// the only places quorum arithmetic may be written — tools/daglint's
/// quorum-arith rule rejects inline `2f+1`-style expressions everywhere
/// else, because off-by-one quorums break the Lemma 4 intersection argument
/// silently.
[[nodiscard]] constexpr std::uint32_t quorum_2f1(std::uint32_t n) {
  return Committee::for_n(n).quorum();
}
[[nodiscard]] constexpr std::uint32_t weak_quorum_f1(std::uint32_t n) {
  return Committee::for_n(n).small_quorum();
}

/// Number of rounds per wave (the paper fixes 4).
inline constexpr Round kRoundsPerWave = 4;

/// k-th round of wave w, k in [1..4]: round(w, k) = 4(w-1) + k.
constexpr Round wave_round(Wave w, Round k, Round rounds_per_wave = kRoundsPerWave) {
  return rounds_per_wave * (w - 1) + k;
}

/// Wave that a round belongs to (rounds >= 1).
constexpr Wave wave_of_round(Round r, Round rounds_per_wave = kRoundsPerWave) {
  return (r - 1) / rounds_per_wave + 1;
}

}  // namespace dr
