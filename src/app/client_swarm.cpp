#include "app/client_swarm.hpp"

#include <cmath>

#include "app/kvstore.hpp"

namespace dr::app {

ClientSwarm::ClientSwarm(core::System& sys, WorkloadConfig cfg,
                         std::uint64_t seed)
    : sys_(sys),
      cfg_(cfg),
      rng_(seed),
      service_(sys, [] { return std::make_unique<KvStore>(); },
               cfg.batch_max),
      correct_(sys.correct_ids()) {}

void ClientSwarm::start() {
  schedule_submit();
  service_.start();
}

void ClientSwarm::schedule_submit() {
  // Exponential inter-arrival with mean 1 / tx_per_tick (open loop).
  const double u = std::max(rng_.uniform(), 1e-12);
  const auto gap = static_cast<sim::SimTime>(
      std::max(1.0, -std::log(u) / cfg_.tx_per_tick));
  sys_.simulator().schedule(gap, [this] {
    const std::uint64_t id = next_tx_id_++;
    const Bytes payload(cfg_.tx_payload, static_cast<std::uint8_t>(id));
    // Submit to `submit_copies` distinct correct processes (clients retry
    // elsewhere when a process looks dead; we model the redundant form).
    const std::size_t start = rng_.below(correct_.size());
    for (std::uint32_t c = 0; c < cfg_.submit_copies; ++c) {
      const ProcessId p = correct_[(start + c) % correct_.size()];
      service_.submit(p, id, payload);
    }
    ++submitted_;
    schedule_submit();
  });
}

}  // namespace dr::app
