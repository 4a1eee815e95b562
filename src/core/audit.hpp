// Log-level BAB auditors, shared between the simulator test suite and the
// real-concurrency runtime cross-check. They operate purely on delivery /
// commit records (core/records.hpp), so the exact same predicates that gate
// the property sweeps under the discrete-event adversary also gate 4-node
// threaded clusters under TSan/ASan — the simulator is the oracle, these
// functions are the shared judge.
//
// Each auditor returns std::nullopt when the invariant holds, or a
// human-readable description of the first violation found.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/records.hpp"

namespace dr::core {

/// Total Order: every pair of logs agrees on the common prefix
/// (same block digest, round, and source at every shared position).
std::optional<std::string> audit_total_order(
    const std::vector<std::vector<DeliveredRecord>>& logs);

/// Integrity: within each log, at most one delivery per (round, source).
std::optional<std::string> audit_integrity(
    const std::vector<std::vector<DeliveredRecord>>& logs);

/// Commit sanity: within each log waves strictly increase (monotonicity);
/// across logs the committed (wave, leader) sequences are prefix-consistent
/// (agreement on which vertex leads every wave).
std::optional<std::string> audit_commits(
    const std::vector<std::vector<CommitRecord>>& logs);

/// Chain quality (§3): in every ordered prefix of (2f+1)r entries, at least
/// (f+1)r were broadcast by correct processes — every round contributes
/// >= 2f+1 vertices of which at most f are Byzantine. Checks every such
/// prefix of every log against the sources in `correct_ids`.
struct ChainQuality {
  /// Lowest correct share over all checked prefixes (1 when there are none).
  double min_share = 1.0;
  /// Prefixes holding fewer than (f+1)r correct entries, over all logs.
  std::uint64_t short_prefixes = 0;
  /// The first short prefix found, or nullopt when the bound holds.
  std::optional<std::string> violation;
};
ChainQuality audit_chain_quality(
    const std::vector<std::vector<DeliveredRecord>>& logs,
    const Committee& committee, const std::vector<ProcessId>& correct_ids);

/// Runs the total-order, integrity and commit auditors; first violation
/// wins.
std::optional<std::string> audit_logs(
    const std::vector<std::vector<DeliveredRecord>>& delivered,
    const std::vector<std::vector<CommitRecord>>& commits);

}  // namespace dr::core
