#include "sim/simulator.hpp"

#include <algorithm>

namespace dr::sim {

bool Simulator::is_cancelled(std::uint64_t id) {
  auto it = std::find(cancelled_.begin(), cancelled_.end(), id);
  if (it == cancelled_.end()) return false;
  // Each id is executed at most once, so drop the tombstone when consumed.
  cancelled_.erase(it);
  return true;
}

std::uint64_t Simulator::run(std::uint64_t max_events) {
  std::uint64_t count = 0;
  while (!queue_.empty() && count < max_events) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (is_cancelled(ev.seq)) continue;
    ev.fn();
    ++count;
  }
  return count;
}

bool Simulator::run_until(const std::function<bool()>& done,
                          std::uint64_t max_events) {
  if (done()) return true;
  std::uint64_t count = 0;
  while (!queue_.empty() && count < max_events) {
    Event ev = queue_.top();
    queue_.pop();
    now_ = ev.time;
    if (is_cancelled(ev.seq)) continue;
    ev.fn();
    ++count;
    if (done()) return true;
  }
  return false;
}

}  // namespace dr::sim
