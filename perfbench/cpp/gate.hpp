// Correctness gate applied to every run before any number is printed: the
// shared BAB auditors (core::audit_logs) over all nodes' logs, plus an
// exactly-once tally of the benchmark's own tx ids as each node a_delivered them.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

struct Tally {
  std::uint64_t delivered = 0;
  std::uint64_t duplicates = 0;  ///< a tx delivered more than once
  std::uint64_t unknown = 0;     ///< delivered but never accepted
  std::uint64_t missing = 0;     ///< accepted but never delivered
};

/// `seqs`: tx ids in delivery order at one node; `accepted[id]` is true iff
/// the system accepted that tx. Duplicates and unknown ids are violations;
/// missing txs are failures the caller counts.
Tally tally_exactly_once(const std::vector<std::uint64_t>& seqs,
                         const std::vector<bool>& accepted);

/// Feeds doctored logs through the gate (one tx dropped, one delivered
/// twice; the same two faults in a node's delivery log) and returns a
/// description of the first fault the gate failed to flag.
std::optional<std::string> gate_self_test();

}  // namespace perfbench
