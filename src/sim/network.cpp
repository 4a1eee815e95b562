#include "sim/network.hpp"

#include "common/assert.hpp"

namespace dr::sim {

Network::Network(Simulator& sim, Committee committee,
                 std::unique_ptr<DelayModel> delays)
    : sim_(sim),
      committee_(committee),
      delays_(std::move(delays)),
      handlers_(committee.n, std::vector<Handler>(kChannelCount)),
      traffic_(committee.n),
      corrupted_(committee.n, false),
      crashed_(committee.n, false),
      corruption_epoch_(committee.n, 0) {
  DR_ASSERT_MSG(committee.valid(), "Network: committee must satisfy n > 3f");
  DR_ASSERT(delays_ != nullptr);
}

void Network::subscribe(ProcessId pid, Channel channel, Handler handler) {
  DR_ASSERT(pid < committee_.n);
  handlers_[pid][static_cast<std::uint32_t>(channel)] = std::move(handler);
}

void Network::send(ProcessId from, ProcessId to, Channel channel,
                   net::Payload payload) {
  DR_ASSERT(from < committee_.n && to < committee_.n);
  if (crashed_[from]) return;  // a crashed process sends nothing

  TrafficCounter& tc = traffic_[from];
  tc.messages_sent += 1;
  tc.bytes_sent += payload.size();
  channel_bytes_[static_cast<std::uint32_t>(channel)] += payload.size();

  const SimTime d = delays_->delay(from, to, channel, payload.size(),
                                   sim_.now(), sim_.rng());
  const std::uint64_t sender_epoch = corruption_epoch_[from];
  // The closure owns the payload; delivery checks the corruption epoch so the
  // adaptive adversary's "drop undelivered messages of a newly corrupted
  // process" power is honoured exactly.
  sim_.schedule(d, [this, from, to, channel, sender_epoch,
                    payload = std::move(payload)]() {
    if (crashed_[to]) return;
    if (corruption_epoch_[from] != sender_epoch) return;  // dropped in flight
    Handler& h = handlers_[to][static_cast<std::uint32_t>(channel)];
    if (!h) return;
    traffic_[to].messages_delivered += 1;
    traffic_[to].bytes_delivered += payload.size();
    h(from, payload);
  });
}

void Network::broadcast(ProcessId from, Channel channel, net::Payload payload) {
  // Each send's closure takes a refcount on the same buffer — n scheduled
  // deliveries, zero payload copies.
  for (ProcessId to = 0; to < committee_.n; ++to) {
    send(from, to, channel, payload);
  }
}

void Network::corrupt(ProcessId pid) {
  DR_ASSERT(pid < committee_.n);
  if (!corrupted_[pid]) {
    corrupted_[pid] = true;
    corruption_epoch_[pid] += 1;  // invalidates all in-flight messages
    DR_ASSERT_MSG(corrupted_count() <= committee_.f,
                  "adversary exceeded corruption budget f");
  }
}

void Network::crash(ProcessId pid) {
  corrupt(pid);
  crashed_[pid] = true;
}

std::uint32_t Network::corrupted_count() const {
  std::uint32_t c = 0;
  for (bool b : corrupted_) c += b ? 1 : 0;
  return c;
}

std::uint64_t Network::total_honest_bytes_sent() const {
  std::uint64_t sum = 0;
  for (ProcessId p = 0; p < committee_.n; ++p) {
    if (!corrupted_[p]) sum += traffic_[p].bytes_sent;
  }
  return sum;
}

std::uint64_t Network::total_bytes_sent() const {
  std::uint64_t sum = 0;
  for (const TrafficCounter& t : traffic_) sum += t.bytes_sent;
  return sum;
}

void Network::reset_traffic() {
  for (TrafficCounter& t : traffic_) t = TrafficCounter{};
  for (std::uint64_t& b : channel_bytes_) b = 0;
}

}  // namespace dr::sim
