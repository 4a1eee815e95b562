// The processes that cast one kind of vote (an RBC echo or ready for one
// payload, a holder already asked for it): a bitmask with a running count.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace dr {

/// Word 0 is inline, so committees of up to 64 never allocate; larger ones
/// keep the other words on the heap.
class VoteSet {
 public:
  /// Records p's vote; true iff p had not voted. A repeated vote is not
  /// counted again.
  bool add(ProcessId p) {
    std::uint64_t* word = &low_;
    if (p >= 64) {
      const std::size_t i = p / 64 - 1;
      if (high_.size() <= i) high_.resize(i + 1, 0);
      word = &high_[i];
    }
    const std::uint64_t bit = std::uint64_t{1} << (p % 64);
    if ((*word & bit) != 0) return false;
    *word |= bit;
    ++count_;
    return true;
  }

  std::uint32_t count() const { return count_; }

 private:
  std::uint64_t low_ = 0;
  std::vector<std::uint64_t> high_;
  std::uint32_t count_ = 0;
};

}  // namespace dr
