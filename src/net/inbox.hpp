// Thread-safe MPSC inbox feeding a node's event loop. Many transport/link
// threads push batches; exactly one consumer drains everything at once, so
// each side pays one lock round-trip per batch regardless of how many frames
// it carries. The capacity is a soft bound realizing per-link backpressure:
// a push that finds the inbox full blocks — but never forever. After one
// grace period it force-enqueues the whole batch and counts one overflow,
// trading strict boundedness for deadlock freedom (two nodes blocked
// mid-flush into each other's full inboxes must not wedge the cluster).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iterator>
#include <mutex>
#include <vector>

#include "net/frame.hpp"

namespace dr::net {

class Inbox {
 public:
  explicit Inbox(std::size_t capacity = 1 << 16,
                 std::chrono::milliseconds overflow_grace =
                     std::chrono::milliseconds(100))
      : capacity_(capacity), overflow_grace_(overflow_grace) {}

  /// Appends `frames` in order and leaves `frames` empty. A bounded push
  /// that finds the inbox full waits at most one grace period for room (see
  /// header comment). An unbounded push never blocks: a node's sends to
  /// itself use it, because the consumer must never block on its own inbox.
  void push_batch(std::vector<Frame>& frames, bool bounded) {
    if (frames.empty()) return;
    {
      std::unique_lock<std::mutex> lk(mu_);
      if (!closed_ && bounded && queue_.size() >= capacity_ &&
          !not_full_.wait_for(lk, overflow_grace_, [this] {
            return queue_.size() < capacity_ || closed_;
          })) {
        ++overflows_;  // grace expired: overflow rather than deadlock
      }
      if (!closed_) {
        queue_.insert(queue_.end(), std::make_move_iterator(frames.begin()),
                      std::make_move_iterator(frames.end()));
      }
    }
    frames.clear();
    not_empty_.notify_one();
  }

  /// Moves everything pending to the end of `out` (handing the queue over
  /// whole when `out` is empty). If the inbox is empty, blocks up to `wait`
  /// for the first frame. Returns the number moved.
  [[nodiscard]] std::size_t pop_all(std::vector<Frame>& out,
                                    std::chrono::milliseconds wait) {
    std::unique_lock<std::mutex> lk(mu_);
    if (queue_.empty() && !closed_) {
      not_empty_.wait_for(lk, wait,
                          [this] { return !queue_.empty() || closed_; });
    }
    const std::size_t popped = queue_.size();
    if (out.empty()) {
      out.swap(queue_);  // queue_ keeps out's old storage for reuse
    } else {
      out.insert(out.end(), std::make_move_iterator(queue_.begin()),
                 std::make_move_iterator(queue_.end()));
      queue_.clear();
    }
    if (popped > 0) not_full_.notify_all();
    return popped;
  }

  /// Wakes the consumer and turns all future pushes into no-ops.
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }
  std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return queue_.size();
  }
  /// Bounded pushes whose grace period expired (one per batch).
  std::uint64_t overflows() const {
    std::lock_guard<std::mutex> lk(mu_);
    return overflows_;
  }

 private:
  const std::size_t capacity_;
  const std::chrono::milliseconds overflow_grace_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::vector<Frame> queue_;
  std::uint64_t overflows_ = 0;
  bool closed_ = false;
};

}  // namespace dr::net
