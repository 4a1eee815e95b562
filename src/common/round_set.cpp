#include "common/round_set.hpp"

#include <iterator>
#include <utility>

namespace dr {

const RoundSet::Run* RoundSet::find(Round word) const {
  auto next = runs_.upper_bound(word);
  if (next == runs_.begin()) return nullptr;
  const Run& run = std::prev(next)->second;
  return word - run.first < run.bits.size() ? &run : nullptr;
}

RoundSet::Run& RoundSet::run_for(Round word) {
  auto next = runs_.upper_bound(word);
  if (next != runs_.begin()) {
    Run& prev = std::prev(next)->second;
    const Round end = prev.first + prev.bits.size();
    if (word < end) return prev;
    // Growing up to `word` never overlaps `next`, which starts above it.
    if (word - end < kReachWords) {
      prev.bits.resize(word - prev.first + 1, 0);
      return prev;
    }
  }
  Run& run = runs_.emplace_hint(next, word, Run{word, {}})->second;
  run.bits.push_back(0);
  return run;
}

bool RoundSet::insert(Round r) {
  const Round word = r / 64;
  if (cur_ == nullptr || word - cur_->first >= cur_->bits.size()) {
    cur_ = &run_for(word);
  }
  std::uint64_t& bits = cur_->bits[word - cur_->first];
  const std::uint64_t bit = std::uint64_t{1} << (r % 64);
  const bool fresh = (bits & bit) == 0;
  bits |= bit;
  return fresh;
}

void RoundSet::erase_below(Round floor) {
  const Round word = floor / 64;
  auto it = runs_.begin();
  while (it != runs_.end() && it->first + it->second.bits.size() <= word) {
    it = runs_.erase(it);
  }
  if (it != runs_.end() && it->first <= word) {
    // The run straddles the floor: drop its words below, clear the low
    // bits of the floor's own word, and re-key it (no allocation).
    auto node = runs_.extract(it);
    Run& run = node.mapped();
    run.bits.erase(run.bits.begin(),
                   run.bits.begin() + static_cast<std::ptrdiff_t>(word - run.first));
    run.bits.front() &= ~std::uint64_t{0} << (floor % 64);
    run.first = word;
    node.key() = word;
    runs_.insert(std::move(node));
  }
  cur_ = nullptr;
}

}  // namespace dr
