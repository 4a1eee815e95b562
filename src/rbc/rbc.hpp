// Reliable broadcast abstraction (§2): r_bcast(m, r) / r_deliver(m, r, p_k)
// with Agreement, Integrity, and Validity. One component instance per
// process multiplexes all (source, round) broadcast instances.
//
// Instantiations (Table 1 rows):
//   BrachaRbc  — classic Bracha [11]: O(n^2) messages, echoes carry the
//                full payload; deterministic guarantees.
//   AvidRbc    — Cachin–Tessaro-style verifiable information dispersal [14]:
//                RS-coded fragments + Merkle commitments;
//                O(n |m| + n^2 log n) bits; deterministic guarantees.
//   GossipRbc  — Guerraoui et al.-style sample-based broadcast [25]:
//                O(n log n) messages with whp (1-ε) guarantees.
//   OracleRbc  — simulator-level idealized broadcast for layering tests.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <set>
#include <utility>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "core/contract.hpp"
#include "net/bus.hpp"

namespace dr::rbc {

/// Key of one broadcast instance: the (source, round) pair that RBC
/// Integrity allows at most one r_deliver for.
struct InstanceKey {
  ProcessId source;
  Round round;
  bool operator==(const InstanceKey& o) const {
    return source == o.source && round == o.round;
  }
};
struct InstanceKeyHash {
  std::size_t operator()(const InstanceKey& k) const {
    return std::hash<std::uint64_t>{}(k.round * 0x9E3779B97F4A7C15ULL ^ k.source);
  }
};

class ReliableBroadcast {
 public:
  /// r_deliver(m, r, p_k): payload m broadcast by source in round r. The
  /// payload is a shared immutable buffer (usually a window into the frame
  /// it arrived in); its memoized digest carries across layers, so consumers
  /// never re-hash bytes the broadcast already classified.
  using DeliverFn =
      std::function<void(ProcessId source, Round r, net::Payload payload)>;

  virtual ~ReliableBroadcast() = default;

  /// Registers the deliver upcall. Must be called before any broadcast.
  virtual void set_deliver(DeliverFn fn) = 0;

  /// r_bcast(m, r) by this process. At most one call per round per process
  /// (the DAG layer guarantees this; Byzantine components may violate it and
  /// the abstraction's Integrity property masks the damage).
  virtual void broadcast(Round r, net::Payload payload) = 0;

 protected:
  /// Contract hook: every implementation calls this immediately before its
  /// deliver upcall. Enforces RBC Integrity (§2) — at most one r_deliver per
  /// (source, round) — independently of each implementation's own
  /// `delivered` gating, so a refactor of any one instantiation's state
  /// machine cannot silently re-deliver (the DAG layer's "no equivocation
  /// past reliable broadcast" assumption, Lemma 2, rests on this).
  void contract_on_deliver(ProcessId source, Round r) {
#if DR_CONTRACTS_ENABLED
    DR_REQUIRE(delivered_contract_.emplace(source, r).second,
               "duplicate r_deliver for (source, round) — RBC Integrity");
#else
    (void)source;
    (void)r;
#endif
  }

 private:
  DR_CONTRACT_STATE(std::set<std::pair<ProcessId, Round>> delivered_contract_;)
};

/// Factory signature used by the system harness so every experiment can be
/// parameterized over the broadcast instantiation.
using RbcFactory = std::function<std::unique_ptr<ReliableBroadcast>(
    net::Bus& net, ProcessId pid, std::uint64_t seed)>;

}  // namespace dr::rbc
