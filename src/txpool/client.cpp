#include "txpool/client.hpp"

#include <cmath>

namespace dr::txpool {

ClientSwarm::ClientSwarm(core::System& sys, WorkloadConfig cfg,
                         std::uint64_t seed)
    : sys_(sys), cfg_(cfg), rng_(seed) {
  for (ProcessId p = 0; p < sys_.n(); ++p) {
    pools_.push_back(std::make_unique<Mempool>());
  }
  correct_ = sys_.correct_ids();
  DR_ASSERT_MSG(!correct_.empty(), "ClientSwarm needs a correct process");
  probe_ = correct_.front();

  for (ProcessId p : correct_) {
    sys_.node(p).set_app_deliver(
        [this, p](const Bytes& block, Round, ProcessId) {
          auto txs = decode_block(block);
          if (!txs) return;  // synthetic / foreign block
          pools_[p]->observe_delivered(txs.value());
          if (p == probe_) on_deliver_at_probe_txs(txs.value());
        });
  }
}

void ClientSwarm::start() {
  schedule_submit();
  for (ProcessId p : correct_) schedule_pump(p);
}

void ClientSwarm::schedule_submit() {
  // Exponential inter-arrival with mean 1 / tx_per_tick (open loop).
  const double u = std::max(rng_.uniform(), 1e-12);
  const auto gap = static_cast<sim::SimTime>(
      std::max(1.0, -std::log(u) / cfg_.tx_per_tick));
  sys_.simulator().schedule(gap, [this] {
    if (submitting_) {
      Transaction tx;
      tx.id = next_tx_id_++;
      tx.submit_time = sys_.simulator().now();
      tx.payload.assign(cfg_.tx_payload, static_cast<std::uint8_t>(tx.id));
      // Submit to `submit_copies` distinct correct processes (clients retry
      // elsewhere when a process looks dead; we model the redundant form).
      const std::size_t start = rng_.below(correct_.size());
      for (std::uint32_t c = 0; c < cfg_.submit_copies; ++c) {
        const ProcessId p = correct_[(start + c) % correct_.size()];
        pools_[p]->submit(tx);
      }
      ++submitted_;
      schedule_submit();
    }
  });
}

void ClientSwarm::schedule_pump(ProcessId p) {
  sys_.simulator().schedule(cfg_.pump_every, [this, p] {
    // Keep the proposal queue primed: one pending block at a time so every
    // vertex carries the freshest batch.
    auto& builder = sys_.node(p).builder();
    if (builder.blocks_pending() == 0 && pools_[p]->pending() > 0) {
      Bytes block = pools_[p]->next_block(cfg_.batch_max);
      if (!block.empty()) sys_.node(p).rider().a_bcast(std::move(block));
    }
    schedule_pump(p);
  });
}

void ClientSwarm::on_deliver_at_probe_txs(const std::vector<Transaction>& txs) {
  for (const Transaction& tx : txs) {
    if (!committed_ids_.insert(tx.id).second) continue;  // re-proposed copy
    ++committed_unique_;
    latency_.add(static_cast<double>(sys_.simulator().now() - tx.submit_time));
  }
}

}  // namespace dr::txpool
