// Simulated asynchronous message-passing network with reliable authenticated
// point-to-point links (the paper's model, §2): messages between correct
// processes always arrive, after an adversary-chosen finite delay. The
// network also does the byte/message accounting behind every Table-1 number.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.hpp"
#include "common/types.hpp"
#include "net/bus.hpp"
#include "sim/simulator.hpp"

namespace dr::sim {

/// The Channel mux now lives in net/ (it is part of the wire contract shared
/// with the real transports); these aliases keep sim-facing code unchanged.
using Channel = net::Channel;
using net::kChannelCount;

/// Chooses per-message delays. The adversary of the asynchronous model *is*
/// the delay model: it may reorder arbitrarily but must keep delays finite
/// between correct processes.
class DelayModel {
 public:
  virtual ~DelayModel() = default;
  /// Delay in ticks for a message sent now from `from` to `to`.
  virtual SimTime delay(ProcessId from, ProcessId to, Channel channel,
                        std::size_t bytes, SimTime now, Xoshiro256& rng) = 0;
  /// Upper bound used to convert measured latencies into the paper's
  /// "asynchronous time units" (max delay among correct processes).
  virtual SimTime max_delay() const = 0;
};

/// Uniform random delay in [min, max] — the baseline benign scheduler.
class UniformDelay final : public DelayModel {
 public:
  UniformDelay(SimTime min_ticks, SimTime max_ticks)
      : min_(min_ticks), max_(max_ticks) {}
  SimTime delay(ProcessId, ProcessId, Channel, std::size_t, SimTime,
                Xoshiro256& rng) override {
    return min_ + rng.below(max_ - min_ + 1);
  }
  SimTime max_delay() const override { return max_; }

 private:
  SimTime min_;
  SimTime max_;
};

/// Per-process byte and message accounting.
struct TrafficCounter {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t bytes_delivered = 0;
};

/// The simulated network realizes the abstract net::Bus contract under a
/// discrete-event clock and an adversarial delay model; the same protocol
/// components also run over net::Transport in the real-concurrency runtime.
class Network final : public net::Bus {
 public:
  using Handler = net::Bus::Handler;

  Network(Simulator& sim, Committee committee, std::unique_ptr<DelayModel> delays);

  Simulator& simulator() { return sim_; }
  const Committee& committee() const override { return committee_; }
  std::uint32_t n() const { return committee_.n; }

  /// Registers the delivery callback for (process, channel). At most one
  /// handler per pair; re-registration replaces (supports test harness reuse).
  void subscribe(ProcessId pid, Channel channel, Handler handler) override;

  /// Point-to-point send. Counted against `from`'s traffic. Self-sends are
  /// delivered through the queue like any other message (with delay), which
  /// keeps protocol logic uniform.
  void send(ProcessId from, ProcessId to, Channel channel,
            net::Payload payload) override;

  /// Convenience: sends the same payload to all n processes (including self);
  /// the n scheduled deliveries share one payload buffer. Wire accounting is
  /// unchanged — each link still counts the full payload size.
  void broadcast(ProcessId from, Channel channel, net::Payload payload) override;

  /// Marks a process as (adaptively) corrupted. Per the model, the adversary
  /// may drop this process's messages that are still in flight; we drop them
  /// all (the strongest choice available to it).
  void corrupt(ProcessId pid);
  bool is_corrupted(ProcessId pid) const { return corrupted_[pid]; }
  std::uint32_t corrupted_count() const;

  /// Stops delivery entirely (crash fault, a special case of Byzantine).
  void crash(ProcessId pid);
  bool is_crashed(ProcessId pid) const { return crashed_[pid]; }

  const TrafficCounter& traffic(ProcessId pid) const { return traffic_[pid]; }
  /// Bytes sent on one protocol channel across all senders (e.g. to verify
  /// the ordering layer's zero-overhead claim, or to split DAG vs coin cost).
  std::uint64_t channel_bytes_sent(Channel channel) const {
    return channel_bytes_[static_cast<std::uint32_t>(channel)];
  }
  /// Total bytes sent by processes that are currently correct (the paper
  /// counts only honest senders' bits).
  std::uint64_t total_honest_bytes_sent() const;
  std::uint64_t total_bytes_sent() const;
  SimTime max_delay() const { return delays_->max_delay(); }

  /// Resets traffic counters (e.g., after warmup rounds).
  void reset_traffic();

 private:
  struct Pending {
    ProcessId from;
    std::uint64_t epoch;  // sender corruption epoch at send time
  };

  Simulator& sim_;
  Committee committee_;
  std::unique_ptr<DelayModel> delays_;
  std::vector<std::vector<Handler>> handlers_;  // [pid][channel]
  std::vector<TrafficCounter> traffic_;
  std::vector<std::uint64_t> channel_bytes_ = std::vector<std::uint64_t>(kChannelCount, 0);
  std::vector<bool> corrupted_;
  std::vector<bool> crashed_;
  std::vector<std::uint64_t> corruption_epoch_;
};

}  // namespace dr::sim
