// Growable bitset for vertex ancestor sets. Slot i = round * n + source,
// so reachability queries ("is u an ancestor of v?") are single bit probes
// and transitive closure updates are word-wide unions.
#pragma once

#include <cstdint>
#include <vector>

namespace dr::dag {

/// Supports windowed truncation: garbage collection drops the words below a
/// watermark so long-running DAGs keep bounded memory; bits below the
/// truncation point read as 0 (their vertices are compacted — queries
/// against them are answered by the delivered-set, not by reachability).
class Bitset {
 public:
  void set(std::size_t i) {
    const std::size_t word = i / 64;
    if (word < offset_) return;  // below the GC watermark: nothing to record
    if (word - offset_ >= words_.size()) words_.resize(word - offset_ + 1, 0);
    words_[word - offset_] |= 1ULL << (i % 64);
  }

  bool test(std::size_t i) const {
    const std::size_t word = i / 64;
    if (word < offset_) return false;
    return word - offset_ < words_.size() && (words_[word - offset_] >> (i % 64)) & 1;
  }

  /// this |= other. Offsets may differ (older vertices truncate lower);
  /// the result keeps this bitset's offset, ignoring bits below it.
  void or_with(const Bitset& other) {
    const std::size_t skip = offset_ > other.offset_ ? offset_ - other.offset_ : 0;
    if (other.offset_ > offset_) {
      // Other starts higher: align our view of its words.
      const std::size_t shift = other.offset_ - offset_;
      if (other.words_.size() + shift > words_.size()) {
        words_.resize(other.words_.size() + shift, 0);
      }
      for (std::size_t i = 0; i < other.words_.size(); ++i) {
        words_[i + shift] |= other.words_[i];
      }
      return;
    }
    if (other.words_.size() > skip) {
      const std::size_t n = other.words_.size() - skip;
      if (n > words_.size()) words_.resize(n, 0);
      for (std::size_t i = 0; i < n; ++i) words_[i] |= other.words_[i + skip];
    }
  }

  /// Frees all words below `word`; bits there read as 0 afterwards.
  void truncate_below_word(std::size_t word) {
    if (word <= offset_) return;
    const std::size_t drop = word - offset_;
    if (drop >= words_.size()) {
      words_.clear();
    } else {
      words_.erase(words_.begin(), words_.begin() + static_cast<std::ptrdiff_t>(drop));
    }
    words_.shrink_to_fit();
    offset_ = word;
  }

  std::size_t count() const {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += static_cast<std::size_t>(__builtin_popcountll(w));
    return c;
  }

  std::size_t allocated_words() const { return words_.size(); }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t offset_ = 0;  ///< words below this index are dropped
};

}  // namespace dr::dag
