// Open-loop client swarm over a core::System: submits transactions at a
// configured rate to per-process mempools, paces block proposals into the
// BAB layer, and tracks end-to-end (submit -> a_deliver) latency.
//
// This is the workload generator behind the throughput/latency experiments;
// it realizes the paper's communication-measurement setup ("each message
// contains a block of transactions", §3) with live traffic instead of
// synthetic auto-blocks.
#pragma once

#include <memory>
#include <vector>

#include "core/system.hpp"
#include "metrics/stats.hpp"
#include "txpool/mempool.hpp"
#include "sim/network.hpp"

namespace dr::txpool {

struct WorkloadConfig {
  double tx_per_tick = 0.05;      ///< aggregate client submission rate
  std::size_t tx_payload = 64;    ///< bytes per transaction
  std::size_t batch_max = 64;     ///< max transactions per proposed block
  sim::SimTime pump_every = 50;   ///< proposal pacing interval (ticks)
  /// How many distinct processes each transaction is submitted to (>= 1;
  /// redundancy lowers the loss risk if the chosen process is faulty).
  std::uint32_t submit_copies = 1;
};

class ClientSwarm {
 public:
  ClientSwarm(core::System& sys, WorkloadConfig cfg, std::uint64_t seed);

  /// Starts submission + pacing events; call once after System::start().
  void start();
  /// Stops injecting new transactions (in-flight ones keep completing).
  void stop_submitting() { submitting_ = false; }

  std::uint64_t submitted() const { return submitted_; }
  std::uint64_t committed() const { return committed_unique_; }
  /// Latency (ticks) distribution, measured at the probe (first correct)
  /// process, first-delivery per transaction id.
  const metrics::Summary& latency() const { return latency_; }
  const Mempool& mempool(ProcessId p) const { return *pools_[p]; }

 private:
  void schedule_submit();
  void schedule_pump(ProcessId p);
  void on_deliver_at_probe_txs(const std::vector<Transaction>& txs);

  core::System& sys_;
  WorkloadConfig cfg_;
  Xoshiro256 rng_;
  std::vector<std::unique_ptr<Mempool>> pools_;
  std::vector<ProcessId> correct_;
  ProcessId probe_ = 0;
  std::uint64_t next_tx_id_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t committed_unique_ = 0;
  std::unordered_set<std::uint64_t> committed_ids_;
  metrics::Summary latency_;
  bool submitting_ = true;
};

}  // namespace dr::txpool
