// One process's protocol stack: reliable broadcast (honest or Byzantine) +
// common coin + DAG builder (Alg. 2) + ordering rule (Alg. 3 or Bullshark),
// assembled once for both hosts — the discrete-event simulator harness
// (core::System) and the threaded runtime (node::Node). The stack knows
// nothing of sim time, threads, or storage: the host hands it a net::Bus
// and its delivery / commit callbacks, and keeps its own records.
#pragma once

#include <memory>

#include "coin/coin.hpp"
#include "coin/dealer.hpp"
#include "core/byzantine.hpp"
#include "core/ordering.hpp"
#include "dag/builder.hpp"
#include "net/bus.hpp"
#include "rbc/factory.hpp"

namespace dr::core {

enum class CoinMode {
  kLocal,      ///< perfect-coin oracle (unit/experiment isolation)
  kThreshold,  ///< threshold coin, shares broadcast on the coin channel
  kPiggyback,  ///< threshold coin, shares embedded in DAG vertices (fn. 1)
};

/// Everything a host chooses for one process's stack; each host fills it
/// from its own config (SystemConfig, NodeOptions) with its own defaults.
struct StackOptions {
  rbc::RbcKind rbc_kind = rbc::RbcKind::kBracha;
  FaultKind fault = FaultKind::kNone;  ///< attacks if stack_plays(fault)
  CoinMode coin_mode = CoinMode::kThreshold;
  OrderingKind ordering = OrderingKind::kDagRider;
  BullsharkOptions bullshark{};
  dag::BuilderOptions builder;
  /// 0 disables GC (the paper's unbounded semantics).
  Round gc_depth_rounds = 0;
  /// Seeds the RBC factory and the local coin.
  std::uint64_t seed = 1;
};

class ProcessStack {
 public:
  /// `dealer` must outlive the stack; required for the threshold / piggyback
  /// coin modes, may be nullptr for kLocal. `deliver` and `on_commit` are
  /// installed on the ordering rule as they are.
  ProcessStack(net::Bus& bus, ProcessId pid, StackOptions opts,
               const coin::CoinDealer* dealer, OrderingRule::DeliverFn deliver,
               OrderingRule::CommitFn on_commit);

  /// The attacking RBC when the stack plays its fault, else nullptr.
  ByzantineRbc* byzantine() const { return byz_; }
  coin::Coin& coin() { return *coin_; }
  dag::DagBuilder& builder() { return *builder_; }
  OrderingRule& rider() { return *rider_; }

 private:
  std::unique_ptr<rbc::ReliableBroadcast> rbc_;
  ByzantineRbc* byz_ = nullptr;  ///< rbc_ downview when the stack attacks
  std::unique_ptr<coin::Coin> coin_;
  std::unique_ptr<dag::DagBuilder> builder_;
  std::unique_ptr<OrderingRule> rider_;
};

}  // namespace dr::core
