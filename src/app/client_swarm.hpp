// Open-loop client swarm over a core::System: submits transactions at a
// configured rate to the replicas of a ReplicatedService, which paces block
// proposals into the BAB layer and tracks end-to-end (submit -> a_deliver)
// latency.
//
// This is the workload generator behind the throughput/latency experiments;
// it realizes the paper's communication-measurement setup ("each message
// contains a block of transactions", §3) with live traffic instead of
// synthetic auto-blocks.
#pragma once

#include <vector>

#include "app/replicated.hpp"
#include "common/rng.hpp"

namespace dr::app {

struct WorkloadConfig {
  double tx_per_tick = 0.05;      ///< aggregate client submission rate
  std::size_t tx_payload = 64;    ///< bytes per transaction
  std::size_t batch_max = 64;     ///< max transactions per proposed block
  /// How many distinct processes each transaction is submitted to (>= 1;
  /// redundancy lowers the loss risk if the chosen process is faulty).
  std::uint32_t submit_copies = 1;
};

class ClientSwarm {
 public:
  ClientSwarm(core::System& sys, WorkloadConfig cfg, std::uint64_t seed);

  /// Starts submission + pacing events; call once after System::start().
  void start();

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t committed() const { return service_.committed_at_probe(); }
  /// Latency (ticks) distribution, measured at the probe (first correct)
  /// process, first-delivery per transaction id.
  const metrics::Summary& latency() const { return service_.latency(); }

 private:
  void schedule_submit();

  core::System& sys_;
  WorkloadConfig cfg_;
  Xoshiro256 rng_;
  /// Replicas run KvStores, which reject the filler payloads
  /// deterministically; execution never feeds back into the simulation.
  ReplicatedService service_;
  std::vector<ProcessId> correct_;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t submitted_ = 0;
};

}  // namespace dr::app
