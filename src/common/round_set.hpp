// The rounds of one source that an at-most-once check has already seen.
// Two checks ask that question of (source, round) pairs, and both use this
// type, one instance per source: RBC Integrity (at most one r_deliver per
// (source, round), §2) in rbc/, and Alg. 3 line 54's "not yet delivered"
// in the ordering layer (core/ordering.hpp), which alone calls erase_below
// to follow its GC floor (DESIGN.md §5, §11).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "common/types.hpp"

namespace dr {

/// One bit per round, kept in dense runs of 64-round words. A run grows
/// upward by at most kReachWords words per insert; a round farther from
/// every run (a source silent for more than 4,096 rounds, or a Byzantine
/// SEND at round 2^40) opens a new one-word run, and the rounds after it
/// grow that run. So no insert allocates more than O(1) words, a round in
/// the run last inserted into costs one bounds check and one bit test, and
/// any other lookup is O(log runs).
class RoundSet {
 public:
  RoundSet() = default;
  RoundSet(const RoundSet&) = delete;  // cur_ points into runs_
  RoundSet& operator=(const RoundSet&) = delete;

  bool contains(Round r) const {
    const Round word = r / 64;
    const Run* run = cur_ != nullptr && word - cur_->first < cur_->bits.size()
                         ? cur_
                         : find(word);
    return run != nullptr &&
           ((run->bits[word - run->first] >> (r % 64)) & 1) != 0;
  }

  /// Adds r; true iff it was not already in the set.
  bool insert(Round r);

  /// Drops every round below `floor`, and the words that held them.
  void erase_below(Round floor);

  /// Dense runs held: one per gap of more than kReachWords words between
  /// the rounds inserted (a memory gauge for tests).
  std::size_t runs() const { return runs_.size(); }

 private:
  static constexpr Round kReachWords = 64;  // 4,096 rounds

  /// Words [first, first + bits.size()) in units of 64 rounds. Runs are
  /// disjoint; word indices are at most 2^58, so no bound overflows.
  struct Run {
    Round first = 0;
    std::vector<std::uint64_t> bits;
  };

  /// The run holding `word`, or nullptr.
  const Run* find(Round word) const;
  /// The run holding `word`, grown or opened so that one does.
  Run& run_for(Round word);

  std::map<Round, Run> runs_;  ///< keyed by Run::first
  Run* cur_ = nullptr;         ///< the run last inserted into
};

}  // namespace dr
