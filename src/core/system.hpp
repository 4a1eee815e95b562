// System harness: runs n DAG-Rider processes (each a core::ProcessStack of
// reliable broadcast + threshold coin + DAG builder + ordering layer) on the
// simulated network, injects faults, and exposes delivered logs. This is the
// top-level entry point a library user instantiates; every test, bench, and
// example builds on it.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "coin/dealer.hpp"
#include "core/records.hpp"
#include "core/stack.hpp"
#include "crypto/sha256.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace dr::core {

struct SystemConfig {
  Committee committee = Committee::for_f(1);
  std::uint64_t seed = 1;
  rbc::RbcKind rbc_kind = rbc::RbcKind::kBracha;
  CoinMode coin_mode = CoinMode::kThreshold;
  /// Which commit rule orders the DAG (DESIGN.md §14); it also fixes the
  /// wave geometry (4 rounds per wave, 2 under kBullshark).
  OrderingKind ordering = OrderingKind::kDagRider;
  BullsharkOptions bullshark{};
  /// Every process's DAG builder settings.
  dag::BuilderOptions builder{.auto_blocks = true, .auto_block_size = 64};
  /// DAG garbage-collection window in rounds; 0 disables GC (the paper's
  /// unbounded semantics). See DagRider::enable_gc for the trade-off.
  Round gc_depth_rounds = 0;
  /// Delay model; nullptr -> UniformDelay(1, 100).
  std::unique_ptr<sim::DelayModel> delays;
  /// faults[pid] (missing entries default kNone). At most f non-kNone.
  /// The harness plays crash and stealthy; the stack plays the rest.
  std::vector<FaultKind> faults;
};

/// One simulated process: the shared ProcessStack plus the harness's
/// sim-time delivery/commit records (core/records.hpp, shared with the
/// threaded runtime's node::Node and the auditors in core/audit.hpp).
class Node {
 public:
  Node(sim::Network& net, ProcessId pid, StackOptions opts,
       const coin::CoinDealer* dealer, sim::Simulator& sim);
  Node(const Node&) = delete;  // the stack's callbacks hold `this`
  Node& operator=(const Node&) = delete;

  dag::DagBuilder& builder() { return stack_.builder(); }
  OrderingRule& rider() { return stack_.rider(); }
  coin::Coin& coin() { return stack_.coin(); }
  ByzantineRbc* byzantine() const { return stack_.byzantine(); }

  const std::vector<DeliveredRecord>& delivered() const { return delivered_; }
  const std::vector<CommitRecord>& commits() const { return commits_; }

  /// Application-level delivery hook, invoked after the harness records the
  /// delivery. Lets an application (bank_smr's state machine) consume block
  /// contents without replacing the bookkeeping.
  using AppDeliverFn = std::function<void(const Bytes& block, Round r, ProcessId source)>;
  void set_app_deliver(AppDeliverFn fn) { app_deliver_ = std::move(fn); }

 private:
  std::vector<DeliveredRecord> delivered_;
  std::vector<CommitRecord> commits_;
  AppDeliverFn app_deliver_;
  ProcessStack stack_;  ///< last: its callbacks write the members above
};

class System {
 public:
  explicit System(SystemConfig cfg);
  ~System();

  /// Starts every process but the crashed ones.
  void start();

  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  const Committee& committee() const { return cfg_.committee; }
  std::uint32_t n() const { return cfg_.committee.n; }

  bool is_correct(ProcessId pid) const {
    return cfg_.faults[pid] == FaultKind::kNone;
  }
  std::vector<ProcessId> correct_ids() const;
  Node& node(ProcessId pid) { return *nodes_[pid]; }
  const Node& node(ProcessId pid) const { return *nodes_[pid]; }

  /// Runs until every correct process has a_delivered >= count blocks.
  /// Returns false if the simulation stalled or max_events elapsed first.
  bool run_until_delivered(std::uint64_t count, std::uint64_t max_events = 50'000'000);

 private:
  SystemConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<coin::CoinDealer> dealer_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

/// Test/analysis helpers over delivered logs.

/// Every correct process's delivered log, in correct_ids() order.
std::vector<std::vector<DeliveredRecord>> correct_logs(const System& sys);

/// True iff every pair of correct logs is prefix-consistent (Total Order).
bool prefix_consistent(const System& sys);

}  // namespace dr::core
