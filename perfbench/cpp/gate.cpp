#include "gate.hpp"

#include "core/audit.hpp"

namespace perfbench {

Tally tally_exactly_once(const std::vector<std::uint64_t>& seqs,
                         const std::vector<bool>& accepted) {
  Tally t;
  std::vector<std::uint8_t> seen(accepted.size(), 0);
  for (const std::uint64_t s : seqs) {
    ++t.delivered;
    if (s >= accepted.size() || !accepted[s]) {
      ++t.unknown;
    } else if (seen[s]++ != 0) {
      ++t.duplicates;
    }
  }
  for (std::size_t i = 0; i < accepted.size(); ++i) {
    if (accepted[i] && seen[i] == 0) ++t.missing;
  }
  return t;
}

std::optional<std::string> gate_self_test() {
  // Tx level: six accepted txs; tx 2 dropped, tx 3 delivered twice.
  const std::vector<bool> accepted(6, true);
  const Tally t = tally_exactly_once({0, 1, 3, 3, 4, 5}, accepted);
  if (t.missing != 1) return "exactly-once tally missed a dropped tx";
  if (t.duplicates != 1) return "exactly-once tally missed a duplicate tx";
  if (tally_exactly_once({0, 1, 2, 3, 4, 5}, accepted).missing != 0) {
    return "exactly-once tally flagged a clean log";
  }

  // Block level: the same two faults in one node's delivery log.
  std::vector<dr::core::DeliveredRecord> clean;
  for (dr::Round r = 1; r <= 3; ++r) {
    for (dr::ProcessId p = 0; p < 4; ++p) {
      dr::core::DeliveredRecord d;
      d.block_digest[0] = static_cast<std::uint8_t>(r * 4 + p);
      d.round = r;
      d.source = p;
      clean.push_back(d);
    }
  }
  std::vector<dr::core::DeliveredRecord> dropped;
  std::vector<dr::core::DeliveredRecord> doubled;
  for (std::size_t i = 0; i < clean.size(); ++i) {
    if (i != 5) dropped.push_back(clean[i]);
    doubled.push_back(clean[i]);
    if (i == 6) doubled.push_back(clean[i]);
  }
  const std::vector<std::vector<dr::core::CommitRecord>> commits(2);
  if (dr::core::audit_logs({clean, clean}, commits).has_value()) {
    return "audit_logs flagged two identical logs";
  }
  if (!dr::core::audit_logs({clean, dropped}, commits).has_value()) {
    return "audit_logs missed a dropped block";
  }
  if (!dr::core::audit_logs({clean, doubled}, commits).has_value()) {
    return "audit_logs missed a block delivered twice";
  }
  return std::nullopt;
}

}  // namespace perfbench
