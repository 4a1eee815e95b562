// Adversarial schedulers. In the asynchronous model the adversary's whole
// power over correct processes is choosing message delays; each class below
// is one strategy. All keep delays finite (the model requires eventual
// delivery between correct processes).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "sim/network.hpp"

namespace dr::sim {

/// Delays every message from a fixed victim set by `slow` ticks; everyone
/// else gets uniform [min, fast]. Models a WAN where f processes sit behind
/// a bad link — the classic way to keep them out of round quorums.
class FixedSetDelay final : public DelayModel {
 public:
  FixedSetDelay(std::vector<ProcessId> victims, SimTime fast, SimTime slow)
      : victims_(victims.begin(), victims.end()), fast_(fast), slow_(slow) {}

  SimTime delay(ProcessId from, ProcessId, Channel, std::size_t, SimTime,
                Xoshiro256& rng) override {
    if (victims_.count(from) > 0) return slow_ + rng.below(slow_ / 4 + 1);
    return 1 + rng.below(fast_);
  }
  SimTime max_delay() const override { return slow_ + slow_ / 4; }

 private:
  std::unordered_set<ProcessId> victims_;
  SimTime fast_;
  SimTime slow_;
};

/// Rotates which k processes are slow, switching every `period` ticks.
/// Stronger than FixedSetDelay against DAG-Rider: it tries to keep a
/// *different* set of processes out of each round's quorum, so no process is
/// reliably in the common core. Because the wave leader is drawn after the
/// wave completes, rotation cannot bias which leader lands outside the core.
class RotatingDelay final : public DelayModel {
 public:
  RotatingDelay(std::uint32_t n, std::uint32_t k, SimTime period, SimTime fast,
                SimTime slow)
      : n_(n), k_(k), period_(period), fast_(fast), slow_(slow) {}

  SimTime delay(ProcessId from, ProcessId, Channel, std::size_t, SimTime now,
                Xoshiro256& rng) override {
    const std::uint64_t phase = now / period_;
    const ProcessId first = static_cast<ProcessId>((phase * k_) % n_);
    // Victims are k consecutive ids starting at `first` (wrapping).
    const std::uint32_t offset = (from + n_ - first) % n_;
    if (offset < k_) return slow_ + rng.below(slow_ / 4 + 1);
    return 1 + rng.below(fast_);
  }
  SimTime max_delay() const override { return slow_ + slow_ / 4; }

 private:
  std::uint32_t n_;
  std::uint32_t k_;
  SimTime period_;
  SimTime fast_;
  SimTime slow_;
};

/// Splits processes into two groups; cross-group messages are stalled by
/// `partition_extra` until `heal_time`, after which the network is uniform.
/// Exercises liveness recovery after long asynchrony.
class PartitionDelay final : public DelayModel {
 public:
  PartitionDelay(std::vector<ProcessId> group_a, SimTime heal_time,
                 SimTime fast, SimTime partition_extra)
      : group_a_(group_a.begin(), group_a.end()),
        heal_time_(heal_time),
        fast_(fast),
        extra_(partition_extra) {}

  SimTime delay(ProcessId from, ProcessId to, Channel, std::size_t, SimTime now,
                Xoshiro256& rng) override {
    const bool cross = group_a_.count(from) != group_a_.count(to);
    SimTime d = 1 + rng.below(fast_);
    if (cross && now < heal_time_) {
      // Stall until just past the heal point, plus jitter.
      d += (heal_time_ - now) + extra_ + rng.below(fast_);
    }
    return d;
  }
  SimTime max_delay() const override { return fast_ + 1; }  // post-heal regime

 private:
  std::unordered_set<ProcessId> group_a_;
  SimTime heal_time_;
  SimTime fast_;
  SimTime extra_;
};

/// Per-link asymmetric delays that re-randomize every `period` ticks: link
/// (from -> to) is slow in epoch e iff H(from, to, e) hits. Unlike the
/// victim-set models this desynchronizes *views*: two receivers observe the
/// same sender at very different times, which is what makes commit-rule
/// evaluations diverge across processes (the Figure-2 scenario).
class AsymmetricDelay final : public DelayModel {
 public:
  AsymmetricDelay(std::uint64_t seed, SimTime period, SimTime fast, SimTime slow,
                  std::uint32_t slow_one_in = 3)
      : seed_(seed), period_(period), fast_(fast), slow_(slow),
        slow_one_in_(slow_one_in) {}

  SimTime delay(ProcessId from, ProcessId to, Channel, std::size_t, SimTime now,
                Xoshiro256& rng) override {
    const std::uint64_t epoch = now / period_;
    SplitMix64 h(seed_ ^ (static_cast<std::uint64_t>(from) << 40) ^
                 (static_cast<std::uint64_t>(to) << 20) ^ epoch);
    if (h.next() % slow_one_in_ == 0) return slow_ + rng.below(slow_ / 4 + 1);
    return 1 + rng.below(fast_);
  }
  SimTime max_delay() const override { return slow_ + slow_ / 4; }

 private:
  std::uint64_t seed_;
  SimTime period_;
  SimTime fast_;
  SimTime slow_;
  std::uint32_t slow_one_in_;
};

/// Mutable victim set: the harness (playing the adversary's brain) can
/// retarget delays while the run executes — e.g. ambush a wave leader the
/// moment the coin reveals it. Demonstrates why *retrospective* election
/// defeats the adaptive adversary: the ambush always comes too late.
class TargetedDelay final : public DelayModel {
 public:
  TargetedDelay(SimTime fast, SimTime slow) : fast_(fast), slow_(slow) {}

  void set_victims(std::unordered_set<ProcessId> victims) {
    victims_ = std::move(victims);
  }
  void add_victim(ProcessId pid) { victims_.insert(pid); }
  void clear_victims() { victims_.clear(); }

  SimTime delay(ProcessId from, ProcessId, Channel, std::size_t, SimTime,
                Xoshiro256& rng) override {
    if (victims_.count(from) > 0) return slow_ + rng.below(slow_ / 4 + 1);
    return 1 + rng.below(fast_);
  }
  SimTime max_delay() const override { return slow_ + slow_ / 4; }

 private:
  std::unordered_set<ProcessId> victims_;
  SimTime fast_;
  SimTime slow_;
};

}  // namespace dr::sim
