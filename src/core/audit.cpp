#include "core/audit.hpp"

#include <algorithm>
#include <set>
#include <sstream>
#include <utility>

namespace dr::core {
namespace {

std::string describe(const DeliveredRecord& r) {
  std::ostringstream os;
  os << "(round=" << r.round << ", source=" << r.source << ", size=" << r.block_size << ")";
  return os.str();
}

}  // namespace

std::optional<std::string> audit_total_order(
    const std::vector<std::vector<DeliveredRecord>>& logs) {
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const std::size_t len = std::min(logs[a].size(), logs[b].size());
      for (std::size_t i = 0; i < len; ++i) {
        if (!logs[a][i].same_value(logs[b][i])) {
          std::ostringstream os;
          os << "total order violated: logs " << a << " and " << b
             << " diverge at position " << i << ": " << describe(logs[a][i])
             << " vs " << describe(logs[b][i]);
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_integrity(
    const std::vector<std::vector<DeliveredRecord>>& logs) {
  for (std::size_t p = 0; p < logs.size(); ++p) {
    std::set<std::pair<Round, ProcessId>> seen;
    for (std::size_t i = 0; i < logs[p].size(); ++i) {
      if (!seen.emplace(logs[p][i].round, logs[p][i].source).second) {
        std::ostringstream os;
        os << "integrity violated: log " << p << " delivers "
           << describe(logs[p][i]) << " twice (second at position " << i << ")";
        return os.str();
      }
    }
  }
  return std::nullopt;
}

std::optional<std::string> audit_commits(
    const std::vector<std::vector<CommitRecord>>& logs) {
  for (std::size_t p = 0; p < logs.size(); ++p) {
    for (std::size_t i = 0; i + 1 < logs[p].size(); ++i) {
      if (logs[p][i].wave >= logs[p][i + 1].wave) {
        std::ostringstream os;
        os << "commit monotonicity violated: log " << p << " commits wave "
           << logs[p][i + 1].wave << " after wave " << logs[p][i].wave;
        return os.str();
      }
    }
  }
  for (std::size_t a = 0; a < logs.size(); ++a) {
    for (std::size_t b = a + 1; b < logs.size(); ++b) {
      const std::size_t len = std::min(logs[a].size(), logs[b].size());
      for (std::size_t i = 0; i < len; ++i) {
        if (logs[a][i].wave != logs[b][i].wave ||
            !(logs[a][i].leader == logs[b][i].leader)) {
          std::ostringstream os;
          os << "commit agreement violated: logs " << a << " and " << b
             << " disagree at commit " << i << " (waves " << logs[a][i].wave
             << " vs " << logs[b][i].wave << ")";
          return os.str();
        }
      }
    }
  }
  return std::nullopt;
}

ChainQuality audit_chain_quality(
    const std::vector<std::vector<DeliveredRecord>>& logs,
    const Committee& committee, const std::vector<ProcessId>& correct_ids) {
  std::vector<bool> correct(committee.n, false);
  for (ProcessId p : correct_ids) correct[p] = true;
  const std::uint64_t quorum = committee.quorum();
  ChainQuality out;
  for (std::size_t p = 0; p < logs.size(); ++p) {
    std::uint64_t correct_so_far = 0;
    for (std::size_t i = 0; i < logs[p].size(); ++i) {
      const ProcessId source = logs[p][i].source;
      correct_so_far += source < committee.n && correct[source] ? 1u : 0u;
      const std::uint64_t len = i + 1;
      if (len % quorum != 0) continue;
      out.min_share = std::min(out.min_share,
                               static_cast<double>(correct_so_far) /
                                   static_cast<double>(len));
      const std::uint64_t needed = committee.small_quorum() * (len / quorum);
      if (correct_so_far >= needed) continue;
      ++out.short_prefixes;
      if (!out.violation.has_value()) {
        std::ostringstream os;
        os << "chain quality violated: log " << p << "'s first " << len
           << " entries hold " << correct_so_far
           << " from correct processes, below (f+1)r = " << needed;
        out.violation = os.str();
      }
    }
  }
  return out;
}

std::optional<std::string> audit_logs(
    const std::vector<std::vector<DeliveredRecord>>& delivered,
    const std::vector<std::vector<CommitRecord>>& commits) {
  if (auto v = audit_total_order(delivered)) return v;
  if (auto v = audit_integrity(delivered)) return v;
  if (auto v = audit_commits(commits)) return v;
  return std::nullopt;
}

}  // namespace dr::core
