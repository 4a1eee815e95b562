// Canonical RbcFactory instances for parameterizing experiments and tests
// over the broadcast instantiation (the rows of Table 1).
#pragma once

#include <memory>
#include <string>

#include "rbc/avid.hpp"
#include "rbc/bracha.hpp"
#include "rbc/bracha_hash.hpp"
#include "rbc/gossip.hpp"
#include "rbc/oracle.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

enum class RbcKind { kBracha, kBrachaHash, kAvid, kGossip, kOracle };

inline const char* to_string(RbcKind kind) {
  switch (kind) {
    case RbcKind::kBracha: return "bracha";
    case RbcKind::kBrachaHash: return "bracha-hash";
    case RbcKind::kAvid: return "avid";
    case RbcKind::kGossip: return "gossip";
    case RbcKind::kOracle: return "oracle";
  }
  return "?";
}

inline RbcFactory make_factory(RbcKind kind) {
  switch (kind) {
    case RbcKind::kBracha:
      return [](net::Bus& net, ProcessId pid, std::uint64_t) {
        return std::make_unique<BrachaRbc>(net, pid);
      };
    case RbcKind::kBrachaHash:
      return [](net::Bus& net, ProcessId pid, std::uint64_t) {
        return std::make_unique<BrachaHashRbc>(net, pid);
      };
    case RbcKind::kAvid:
      return [](net::Bus& net, ProcessId pid, std::uint64_t) {
        return std::make_unique<AvidRbc>(net, pid);
      };
    case RbcKind::kGossip:
      return [](net::Bus& net, ProcessId pid, std::uint64_t seed) {
        return std::make_unique<GossipRbc>(net, pid, seed);
      };
    case RbcKind::kOracle:
      return [](net::Bus& net, ProcessId pid, std::uint64_t) {
        return std::make_unique<OracleRbc>(net, pid);
      };
  }
  return {};
}

}  // namespace dr::rbc
