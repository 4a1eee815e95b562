// Deterministic discrete-event simulator. A single logical clock and a
// priority queue of closures; ties broken by insertion sequence so identical
// (topology, seed) pairs replay the exact same execution.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "common/rng.hpp"

namespace dr::sim {

/// Simulated time in abstract ticks. Message delays are on the order of
/// 1'000 ticks so sub-tick rounding never matters.
using SimTime = std::uint64_t;

class Simulator {
 public:
  explicit Simulator(std::uint64_t seed) : rng_(seed) {}

  SimTime now() const { return now_; }
  Xoshiro256& rng() { return rng_; }

  /// Schedules `fn` to run at now() + delay. Returns an id usable by cancel().
  std::uint64_t schedule(SimTime delay, std::function<void()> fn) {
    const std::uint64_t id = next_seq_++;
    queue_.push(Event{now_ + delay, id, std::move(fn), false});
    return id;
  }

  /// Lazily cancels a scheduled event (it stays queued but will not run).
  void cancel(std::uint64_t id) { cancelled_.push_back(id); }

  /// Runs events until the queue is empty or `max_events` have executed.
  /// Returns the number of events executed.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Runs until the predicate returns true (checked after every event) or
  /// the queue drains. Returns true iff the predicate was satisfied.
  bool run_until(const std::function<bool()>& done,
                 std::uint64_t max_events = UINT64_MAX);

  bool idle() const { return queue_.empty(); }

 private:
  struct Event {
    SimTime time;
    std::uint64_t seq;
    std::function<void()> fn;
    bool cancelled;
    bool operator>(const Event& o) const {
      return time != o.time ? time > o.time : seq > o.seq;
    }
  };

  bool is_cancelled(std::uint64_t id);

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> queue_;
  std::vector<std::uint64_t> cancelled_;
  Xoshiro256 rng_;
};

}  // namespace dr::sim
