#include "net/chaos.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>

#include "common/assert.hpp"
#include "core/contract.hpp"

namespace dr::net {
namespace {

/// Uniform double in [0, 1) from one 64-bit draw (same mapping as
/// Xoshiro256::uniform, but usable on a stateless per-frame hash).
double unit(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

/// Uniform draw in [0, bound] from one 64-bit hash output. Modulo bias is
/// negligible for fault-schedule purposes (bound << 2^64) and keeps the
/// decision a single stateless evaluation.
std::uint64_t below_inclusive(std::uint64_t x, std::uint64_t bound) {
  return bound == 0 ? 0 : x % (bound + 1);
}

/// Mixes the frame coordinates into one 64-bit stream key. Every field gets
/// its own region and the seq is golden-ratio-spread so adjacent frames land
/// in unrelated SplitMix64 streams.
std::uint64_t frame_key(ProcessId from, ProcessId to, Channel channel,
                        std::uint64_t seq) {
  return (static_cast<std::uint64_t>(from) << 48) ^
         (static_cast<std::uint64_t>(to) << 32) ^
         (static_cast<std::uint64_t>(channel) << 24) ^
         (seq * 0x9e3779b97f4a7c15ULL);
}

}  // namespace

bool PartitionSpec::separates(ProcessId a, ProcessId b) const {
  const bool a_in = std::find(group_a.begin(), group_a.end(), a) != group_a.end();
  const bool b_in = std::find(group_a.begin(), group_a.end(), b) != group_a.end();
  return a_in != b_in;
}

const LinkFaults& ChaosPlan::faults_for(Channel channel) const {
  for (const auto& [ch, lf] : per_channel) {
    if (ch == channel) return lf;
  }
  return base;
}

ChaosPlan::Decision ChaosPlan::decide(ProcessId from, ProcessId to,
                                      Channel channel, std::uint64_t seq) const {
  Decision d;
  const LinkFaults& lf = faults_for(channel);
  if (!lf.any()) return d;
  // One independent hash stream per frame: thread timing can never perturb
  // the fate of frame k on a link, only when that fate is carried out.
  SplitMix64 h(seed ^ frame_key(from, to, channel, seq));
  // Lossy link with retransmission: draw per-attempt fates until one goes
  // through (or the forced-success cap). Every lost attempt costs one RTO.
  while (d.lost_attempts < kMaxLossStreak && unit(h.next()) < lf.drop) {
    ++d.lost_attempts;
  }
  d.delay_us = d.lost_attempts * lf.retransmit_us + lf.delay_min_us +
               below_inclusive(h.next(), lf.delay_max_us > lf.delay_min_us
                                             ? lf.delay_max_us - lf.delay_min_us
                                             : 0);
  if (unit(h.next()) < lf.reorder) {
    d.holdback_us =
        lf.reorder_holdback_us + below_inclusive(h.next(), lf.reorder_holdback_us);
  }
  if (unit(h.next()) < lf.duplicate) {
    d.duplicate = true;
    d.duplicate_gap_us = 1 + below_inclusive(h.next(), lf.delay_max_us);
  }
  return d;
}

std::uint64_t ChaosPlan::partition_heal_us(ProcessId from, ProcessId to,
                                           std::uint64_t elapsed_us) const {
  std::uint64_t heal = 0;
  for (const PartitionSpec& p : partitions) {
    if (elapsed_us >= p.start_us && elapsed_us < p.heal_us &&
        p.separates(from, to)) {
      heal = std::max(heal, p.heal_us);
    }
  }
  return heal;
}

std::uint64_t ChaosPlan::max_injected_delay_us() const {
  auto worst = [](const LinkFaults& lf) {
    return lf.delay_max_us + 2 * lf.reorder_holdback_us +
           kMaxLossStreak * lf.retransmit_us;
  };
  std::uint64_t m = worst(base);
  for (const auto& [ch, lf] : per_channel) {
    (void)ch;
    m = std::max(m, worst(lf));
  }
  return m;
}

std::string ChaosPlan::describe() const {
  auto fmt_faults = [](const LinkFaults& lf) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "drop=%.3f dup=%.3f reorder=%.3f delay=[%llu,%llu]us "
                  "holdback=%lluus rto=%lluus rate=%lluB/s",
                  lf.drop, lf.duplicate, lf.reorder,
                  static_cast<unsigned long long>(lf.delay_min_us),
                  static_cast<unsigned long long>(lf.delay_max_us),
                  static_cast<unsigned long long>(lf.reorder_holdback_us),
                  static_cast<unsigned long long>(lf.retransmit_us),
                  static_cast<unsigned long long>(lf.bytes_per_sec));
    return std::string(buf);
  };
  std::string out = "chaos{seed=" + std::to_string(seed) + " " + fmt_faults(base);
  for (const auto& [ch, lf] : per_channel) {
    out += " ch" + std::to_string(static_cast<std::uint32_t>(ch)) + "{" +
           fmt_faults(lf) + "}";
  }
  for (const PartitionSpec& p : partitions) {
    out += " part[" + std::to_string(p.start_us) + ".." +
           std::to_string(p.heal_us) + "us A={";
    for (std::size_t i = 0; i < p.group_a.size(); ++i) {
      if (i > 0) out += ',';
      out += std::to_string(p.group_a[i]);
    }
    out += "}]";
  }
  out += "}";
  return out;
}

ChaosPlan ChaosPlan::randomized(std::uint64_t seed, std::uint32_t n,
                                bool allow_partition) {
  DR_ASSERT_MSG(n >= 1, "randomized plan needs a committee size");
  ChaosPlan plan;
  plan.seed = seed;
  Xoshiro256 rng(seed ^ 0xC0A05EEDULL);  // plan stream, distinct from decide()
  plan.base.drop = rng.uniform() * 0.10;
  plan.base.duplicate = rng.uniform() * 0.05;
  plan.base.reorder = rng.uniform() * 0.10;
  plan.base.delay_min_us = rng.below(500);
  plan.base.delay_max_us = plan.base.delay_min_us + rng.below(15'000);
  plan.base.reorder_holdback_us = 1'000 + rng.below(8'000);
  plan.base.retransmit_us = 15'000 + rng.below(45'000);
  // Throttle only some runs, and never below 1 MB/s: the point is jittered
  // pacing, not starving the cluster outright.
  plan.base.bytes_per_sec =
      rng.uniform() < 0.3 ? 1'000'000 + rng.below(8'000'000) : 0;
  // Lean harder on the catch-up path in some runs: extra kSync loss.
  if (rng.uniform() < 0.5) {
    LinkFaults sync = plan.base;
    sync.drop = std::min(0.35, sync.drop + rng.uniform() * 0.25);
    plan.per_channel.emplace_back(Channel::kSync, sync);
  }
  const std::uint32_t f = Committee::for_n(n).f;
  if (allow_partition && f >= 1 && rng.uniform() < 0.8) {
    PartitionSpec part;
    part.start_us = 50'000 + rng.below(150'000);
    part.heal_us = part.start_us + 50'000 + rng.below(250'000);
    // Cut off a minority of exactly f processes so the remaining 2f+1 side
    // keeps satisfying every quorum (liveness holds through the window).
    std::vector<ProcessId> ids(n);
    for (ProcessId p = 0; p < n; ++p) ids[p] = p;
    for (std::uint32_t i = 0; i < f; ++i) {
      const std::uint64_t j = i + rng.below(n - i);
      std::swap(ids[i], ids[j]);
      part.group_a.push_back(ids[i]);
    }
    plan.partitions.push_back(std::move(part));
  }
  return plan;
}

ChaosTransport::ChaosTransport(std::unique_ptr<Transport> inner, ChaosPlan plan)
    : inner_(std::move(inner)),
      plan_(std::move(plan)),
      epoch_(std::chrono::steady_clock::now()) {
  DR_ASSERT(inner_ != nullptr);
  // The loop feeds only the contract, which compiles away in Release.
  for ([[maybe_unused]] const PartitionSpec& p : plan_.partitions) {
    // A partition without a heal point is not a chaos fault, it is a model
    // violation: liveness between correct processes requires finite delays.
    DR_REQUIRE(p.heal_us > p.start_us,
               "every scripted partition must heal after it starts");
  }
  const std::size_t n = inner_->committee().n;
  seq_.assign(n * kChannelCount, 0);
  bucket_free_us_.assign(n, 0);
}

ChaosTransport::~ChaosTransport() { stop(); }

std::uint64_t ChaosTransport::elapsed_us() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

void ChaosTransport::start(RecvFn recv) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    DR_ASSERT_MSG(!running_, "ChaosTransport::start is one-shot");
    running_ = true;
  }
  scheduler_ = std::thread([this] { scheduler_loop(); });
  inner_->start(std::move(recv));
}

void ChaosTransport::send(ProcessId to, Channel channel, Payload payload) {
  // Loopback is internal machinery (a node queueing work to itself), not a
  // network link; faulting it would wedge the node, not test the protocol.
  if (to == pid()) {
    inner_->send(to, channel, std::move(payload));
    return;
  }
  const std::uint64_t now = elapsed_us();
  ChaosPlan::Decision d;
  std::uint64_t due = now;
  bool throttled = false;
  bool deferred = false;
  {
    std::lock_guard<std::mutex> lk(mu_);
    const std::size_t slot =
        static_cast<std::size_t>(to) * kChannelCount +
        static_cast<std::uint32_t>(channel);
    d = plan_.decide(pid(), to, channel, seq_[slot]++);
    due = now + d.delay_us + d.holdback_us;
    // Link outage: frames sent into a partition window come out after its
    // heal point (plus their injected latency), like TCP retransmission
    // carrying data across a temporary cut.
    const std::uint64_t heal = plan_.partition_heal_us(pid(), to, now);
    if (heal != 0) {
      deferred = true;
      due = std::max(due, heal + d.delay_us);
    }
    const LinkFaults& lf = plan_.faults_for(channel);
    if (lf.bytes_per_sec > 0) {
      // Token bucket per destination: a frame occupies the link for
      // size/rate; queueing behind earlier frames is the throttle.
      const std::uint64_t transmit_us =
          payload.size() * 1'000'000 / lf.bytes_per_sec;
      std::uint64_t& free_at = bucket_free_us_[to];
      const std::uint64_t start_at = std::max(due, free_at);
      free_at = start_at + transmit_us;
      throttled = free_at > due;
      due = free_at;
    }
  }
  if (d.lost_attempts > 0) {
    stats_.drops.fetch_add(d.lost_attempts, std::memory_order_relaxed);
  }
  if (deferred) {
    stats_.partition_delays.fetch_add(1, std::memory_order_relaxed);
  }
  if (d.holdback_us > 0) stats_.reorders.fetch_add(1, std::memory_order_relaxed);
  if (throttled) stats_.throttled.fetch_add(1, std::memory_order_relaxed);
  if (due <= now && !d.duplicate) {
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    inner_->send(to, channel, std::move(payload));
    return;
  }
  stats_.delays.fetch_add(1, std::memory_order_relaxed);
  if (d.duplicate) {
    stats_.duplicates.fetch_add(1, std::memory_order_relaxed);
    enqueue(due + d.duplicate_gap_us, to, channel, payload);
  }
  enqueue(due, to, channel, std::move(payload));
}

void ChaosTransport::enqueue(std::uint64_t due_us, ProcessId to,
                             Channel channel, Payload payload) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_) {
      stats_.dropped_at_stop.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    pending_.push(Pending{due_us, next_order_++, to, channel, std::move(payload)});
  }
  cv_.notify_one();
}

void ChaosTransport::scheduler_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (running_) {
    if (pending_.empty()) {
      cv_.wait(lk, [this] { return !running_ || !pending_.empty(); });
      continue;
    }
    const std::uint64_t now = elapsed_us();
    const Pending& head = pending_.top();
    if (head.due_us > now) {
      cv_.wait_for(lk, std::chrono::microseconds(head.due_us - now));
      continue;
    }
    Pending item = pending_.top();
    pending_.pop();
    // Deliver outside the lock: the inner send may block on backpressure,
    // and new sends from the node thread must not be serialized behind it.
    lk.unlock();
    inner_->send(item.to, item.channel, std::move(item.payload));
    stats_.forwarded.fetch_add(1, std::memory_order_relaxed);
    lk.lock();
  }
}

void ChaosTransport::stop() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (!running_ && scheduler_.joinable() == false && pending_.empty()) {
      inner_->stop();  // idempotent passthrough
      return;
    }
    running_ = false;
    stats_.dropped_at_stop.fetch_add(pending_.size(),
                                     std::memory_order_relaxed);
    while (!pending_.empty()) pending_.pop();
  }
  cv_.notify_all();
  if (scheduler_.joinable()) scheduler_.join();
  inner_->stop();
}

TransportCounters ChaosTransport::counters() const {
  TransportCounters out = inner_->counters();
  auto get = [](const std::atomic<std::uint64_t>& a) {
    return a.load(std::memory_order_relaxed);
  };
  out.emplace_back("chaos.forwarded", get(stats_.forwarded));
  out.emplace_back("chaos.drops", get(stats_.drops));
  out.emplace_back("chaos.partition_delays", get(stats_.partition_delays));
  out.emplace_back("chaos.delays", get(stats_.delays));
  out.emplace_back("chaos.duplicates", get(stats_.duplicates));
  out.emplace_back("chaos.reorders", get(stats_.reorders));
  out.emplace_back("chaos.throttled", get(stats_.throttled));
  out.emplace_back("chaos.dropped_at_stop", get(stats_.dropped_at_stop));
  return out;
}

}  // namespace dr::net
