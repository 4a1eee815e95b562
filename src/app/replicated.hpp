// ReplicatedService: glues a core::System to per-replica state machines via
// the transaction layer. Commands submitted at any replica flow through the
// mempool -> BAB -> execution pipeline; digests audit replica agreement.
// This is the simulator's one proposal pump: the open-loop ClientSwarm
// drives its workload through it too.
#pragma once

#include <functional>
#include <memory>
#include <unordered_set>
#include <vector>

#include "app/state_machine.hpp"
#include "core/system.hpp"
#include "ingress/mempool.hpp"
#include "metrics/stats.hpp"
#include "sim/network.hpp"

namespace dr::app {

class ReplicatedService {
 public:
  using MachineFactory = std::function<std::unique_ptr<StateMachine>()>;

  /// Builds one state machine and one mempool per process and hooks block
  /// delivery into deterministic execution. Call before System::start().
  ReplicatedService(core::System& sys, MachineFactory factory,
                    std::size_t batch_max = 32);

  /// Submits a command at replica `p` (rejected if duplicate id).
  bool submit(ProcessId p, std::uint64_t command_id, Bytes command);

  /// Starts the proposal pacing loop. Call after System::start().
  void start();

  StateMachine& machine(ProcessId p) { return *machines_[p]; }
  const StateMachine& machine(ProcessId p) const { return *machines_[p]; }

  /// True iff all correct replicas that applied the same number of commands
  /// report the same state digest; replicas at different positions are
  /// compared on count only (prefix property handles the rest).
  bool replicas_consistent() const;

  /// Distinct command ids delivered at the first correct replica (a command
  /// proposed by two replicas is delivered, and applied, twice).
  std::uint64_t committed_at_probe() const { return committed_ids_.size(); }
  /// Submit -> first a_deliver latency (ticks) per command id, at the same
  /// replica.
  const metrics::Summary& latency() const { return latency_; }

 private:
  void schedule_pump(ProcessId p);

  core::System& sys_;
  std::size_t batch_max_;
  std::vector<std::unique_ptr<StateMachine>> machines_;
  std::vector<std::unique_ptr<ingress::Mempool>> pools_;
  std::vector<ProcessId> correct_;
  std::unordered_set<std::uint64_t> committed_ids_;
  metrics::Summary latency_;
};

}  // namespace dr::app
