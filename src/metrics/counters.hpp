// Flat named-counter snapshot: the node runtime's introspection format
// (node::Node::counters()). A vector of (name, value) pairs rather than a
// struct so call sites can aggregate counters from independent subsystems
// (builder, catch-up sync, storage) without this header knowing about them.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dr::metrics {

using Counter = std::pair<std::string, std::uint64_t>;
using Counters = std::vector<Counter>;

/// Appends `items` to `out` with every name prefixed "<prefix>.". Used to
/// merge counters from subsystems that expose structurally-compatible pair
/// vectors without depending on this header (e.g. net::TransportCounters —
/// chaos fault-injection and TCP link-error counts surface through here).
template <typename Items>
inline void append_prefixed(Counters& out, const std::string& prefix,
                            const Items& items) {
  for (const auto& [name, value] : items) {
    out.emplace_back(prefix + "." + name, value);
  }
}

/// Sums counters with identical names across per-node snapshots — the
/// cluster-wide aggregate a soak run reports (and ships in bench --json).
inline Counters aggregate(const std::vector<Counters>& per_node) {
  Counters out;
  for (const Counters& node : per_node) {
    for (const Counter& c : node) {
      bool merged = false;
      for (Counter& o : out) {
        if (o.first == c.first) {
          o.second += c.second;
          merged = true;
          break;
        }
      }
      if (!merged) out.push_back(c);
    }
  }
  return out;
}

}  // namespace dr::metrics
