// Fault-injecting transport decorator (DESIGN.md §12): wraps any
// net::Transport endpoint (InProcNetwork and TcpTransport alike) and applies
// adversarial faults to OUTBOUND frames according to a seeded ChaosPlan —
// drop, delay, reorder, duplicate, bandwidth throttling, and scripted
// partitions with a mandatory heal point. This is the live-runtime analogue
// of sim::DelayModel: the simulator's adversary chooses message delays on a
// virtual clock; ChaosTransport chooses frame fates on the real clock, at
// the same seam the protocol stack already programs against.
//
// Determinism contract (the seed-replay property the chaos suite regresses):
// every fault decision is a PURE FUNCTION of (plan seed, from, to, channel,
// per-link sequence number) — no wall-clock entropy, no std::random_device,
// no shared RNG whose consumption order depends on thread interleaving.
// Frames on one (destination, channel) link are numbered in send order by
// the single node thread that produces them, so the k-th frame on a link
// meets the same fate in every run with the same plan. Scripted partitions
// and the token-bucket throttle are functions of elapsed time since start()
// and of the frame sizes, which the plan also pins down. What is NOT
// reproduced bit-identically is OS thread timing; the auditors judge logs,
// not timings, so a replayed seed re-checks the same adversarial schedule.
//
// Model fidelity: all injected delays are finite and partitions must heal
// (enforced by DR_REQUIRE), so the asynchronous model's liveness assumption
// — eventual delivery between correct processes — is preserved in the
// limit. Frame LOSS is modelled the way a real stack experiences it: the
// link layer retransmits a lost frame after a seeded retransmission timeout
// (each attempt's fate drawn from the same pure per-frame hash stream, with
// a forced success after kMaxLossStreak losses). Bracha assumes reliable
// point-to-point channels — dropping an ECHO/READY outright with no
// retransmit would put the run outside the paper's model, and the whole
// cluster can wedge in one round with no frontier lag for catch-up sync to
// notice. Loss therefore injects RTO-sized latency spikes, reordering, and
// duplicate-looking retries rather than silent holes. Scripted partitions
// follow the same philosophy: a partition is a link OUTAGE, not frame loss
// — frames sent into the window are held and delivered after the heal
// point, exactly as TCP retransmission carries data across a temporary
// cut. (Dropping them outright can wedge the cluster outside the model:
// if the majority side cannot advance — say it hosts the Byzantine seat —
// no frontier lag ever develops and catch-up sync never fires.) True frame
// loss still exists where the system really loses frames: a crashed node's
// endpoint drops everything sent while it is down, which is what the churn
// soaks + catch-up sync exercise. Loopback (self-send) frames are never
// faulted: a node's own inbox is process-internal state, not a network
// link.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "net/transport.hpp"

namespace dr::net {

/// Fault intensities for one class of links. Probabilities in [0, 1];
/// delays in microseconds. Defaults are all-zero (transparent pass-through).
struct LinkFaults {
  double drop = 0.0;       ///< P(one transmission attempt is lost)
  double duplicate = 0.0;  ///< P(frame delivered twice)
  double reorder = 0.0;    ///< P(frame held back so successors overtake it)
  std::uint64_t delay_min_us = 0;  ///< uniform per-frame latency, lower bound
  std::uint64_t delay_max_us = 0;  ///< upper bound (inclusive)
  /// Extra holdback applied to reordered frames, on top of the base delay.
  std::uint64_t reorder_holdback_us = 5'000;
  /// Link-layer retransmission timeout: each lost attempt adds this much
  /// latency before the next try (see the model-fidelity note above).
  std::uint64_t retransmit_us = 30'000;
  /// Token-bucket bandwidth cap per destination link; 0 = unlimited.
  std::uint64_t bytes_per_sec = 0;

  bool any() const {
    return drop > 0 || duplicate > 0 || reorder > 0 || delay_max_us > 0 ||
           bytes_per_sec > 0;
  }
};

/// One scripted partition window: frames crossing the {group_a, rest} cut
/// while start_us <= elapsed < heal_us are held back and delivered after
/// heal_us (link outage semantics — see the model-fidelity note above).
/// heal_us must be finite and past start_us — a partition that never heals
/// would violate the model's eventual-delivery assumption outright.
struct PartitionSpec {
  std::uint64_t start_us = 0;
  std::uint64_t heal_us = 0;
  std::vector<ProcessId> group_a;

  bool separates(ProcessId a, ProcessId b) const;
};

/// The full seeded fault schedule for one run. Every endpoint of a cluster
/// shares one plan; per-link independence comes from keying decisions on
/// (from, to, channel, seq), not from per-endpoint RNG state.
struct ChaosPlan {
  std::uint64_t seed = 1;
  /// Faults applied to every channel without an override.
  LinkFaults base;
  /// Per-channel overrides (e.g. drop only Channel::kSync traffic).
  std::vector<std::pair<Channel, LinkFaults>> per_channel;
  std::vector<PartitionSpec> partitions;

  /// Loss streaks longer than this are forced through on the next attempt,
  /// keeping worst-case injected latency finite even at drop = 1.0.
  static constexpr std::uint32_t kMaxLossStreak = 4;

  /// Deterministic fate of the seq-th frame from `from` to `to` on
  /// `channel`. Pure function of the plan — the seed-replay contract.
  struct Decision {
    /// Transmission attempts lost before the one that goes through; each
    /// adds retransmit_us to the frame's latency (0 = clean first try).
    std::uint32_t lost_attempts = 0;
    bool duplicate = false;
    std::uint64_t delay_us = 0;      ///< base injected latency
    std::uint64_t holdback_us = 0;   ///< extra reorder holdback
    std::uint64_t duplicate_gap_us = 0;  ///< echo's spacing after the original
  };
  Decision decide(ProcessId from, ProcessId to, Channel channel,
                  std::uint64_t seq) const;

  const LinkFaults& faults_for(Channel channel) const;

  /// Latest heal point among the partitions currently severing from -> to,
  /// or 0 when the pair is connected — the earliest time a frame sent now
  /// can come out of the outage.
  std::uint64_t partition_heal_us(ProcessId from, ProcessId to,
                                  std::uint64_t elapsed_us) const;

  /// Human-readable one-line schedule, printed next to the seed on any soak
  /// violation so the failing run can be replayed and diffed.
  std::string describe() const;

  /// Largest injected latency this plan can produce (delay + holdback),
  /// across base and overrides. Finite by construction; tests use it to
  /// bound "eventually".
  std::uint64_t max_injected_delay_us() const;

  /// Derives a full randomized schedule from one seed — the generator the
  /// chaos soak sweeps. `allow_partition` gates the scripted-partition
  /// clause (some suites script their own). All randomness flows through
  /// Xoshiro256(seed): same seed, same plan, bit-identical.
  static ChaosPlan randomized(std::uint64_t seed, std::uint32_t n,
                              bool allow_partition = true);
};

/// Monotonic fault counters, readable while the transport runs.
struct ChaosStats {
  std::atomic<std::uint64_t> forwarded{0};  ///< frames passed through untouched
  std::atomic<std::uint64_t> drops{0};  ///< lost attempts (healed by retransmit)
  /// Frames held back by a partition window, delivered after its heal point.
  std::atomic<std::uint64_t> partition_delays{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> reorders{0};
  std::atomic<std::uint64_t> throttled{0};
  /// Frames still queued for delayed delivery when stop() discarded them
  /// (in-flight packets lost at shutdown, as on a real wire).
  std::atomic<std::uint64_t> dropped_at_stop{0};
};

class ChaosTransport final : public Transport {
 public:
  ChaosTransport(std::unique_ptr<Transport> inner, ChaosPlan plan);
  ~ChaosTransport() override;

  ProcessId pid() const override { return inner_->pid(); }
  const Committee& committee() const override { return inner_->committee(); }

  void start(RecvFn recv) override;
  void send(ProcessId to, Channel channel, Payload payload) override;
  void stop() override;

  std::uint64_t backpressure_overflows() const override {
    return inner_->backpressure_overflows();
  }
  TransportCounters counters() const override;

  const ChaosPlan& plan() const { return plan_; }
  const ChaosStats& stats() const { return stats_; }

  /// Microseconds since construction — the clock partition windows and the
  /// token bucket run on.
  std::uint64_t elapsed_us() const;

 private:
  struct Pending {
    std::uint64_t due_us = 0;
    std::uint64_t order = 0;  ///< FIFO tiebreak for equal due times
    ProcessId to = 0;
    Channel channel = Channel::kBracha;
    Payload payload;
  };
  struct PendingLater {
    bool operator()(const Pending& a, const Pending& b) const {
      if (a.due_us != b.due_us) return a.due_us > b.due_us;
      return a.order > b.order;
    }
  };

  void scheduler_loop();
  void enqueue(std::uint64_t due_us, ProcessId to, Channel channel,
               Payload payload);

  std::unique_ptr<Transport> inner_;
  ChaosPlan plan_;
  ChaosStats stats_;
  std::chrono::steady_clock::time_point epoch_;

  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::uint64_t> seq_;              ///< per (to, channel) counters
  std::vector<std::uint64_t> bucket_free_us_;   ///< per-destination throttle
  std::priority_queue<Pending, std::vector<Pending>, PendingLater> pending_;
  std::uint64_t next_order_ = 0;
  bool running_ = false;
  std::thread scheduler_;
};

}  // namespace dr::net
