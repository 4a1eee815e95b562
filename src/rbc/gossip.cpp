#include "rbc/gossip.hpp"

#include <algorithm>
#include <cmath>

#include "common/rng.hpp"

namespace dr::rbc {

namespace {

/// Fraction of the echo sample whose echoes a delivery requires.
constexpr double kEchoThreshold = 0.66;

}  // namespace

std::vector<ProcessId> GossipRbc::sample_of(std::uint64_t system_seed,
                                            std::uint32_t n, ProcessId owner,
                                            std::uint32_t size, const char* tag) {
  // Distinct-element sample via seeded partial Fisher-Yates.
  size = std::min(size, n);
  Xoshiro256 rng(system_seed ^ crypto::digest_prefix_u64(crypto::sha256_tagged(
                                   tag, {BytesView{reinterpret_cast<const std::uint8_t*>(&owner),
                                                   sizeof(owner)}})));
  std::vector<ProcessId> ids(n);
  for (std::uint32_t i = 0; i < n; ++i) ids[i] = i;
  for (std::uint32_t i = 0; i < size; ++i) {
    const std::uint32_t j = i + static_cast<std::uint32_t>(rng.below(n - i));
    std::swap(ids[i], ids[j]);
  }
  ids.resize(size);
  return ids;
}

GossipRbc::GossipRbc(net::Bus& net, ProcessId pid, std::uint64_t system_seed)
    : net_(net), pid_(pid), delivered_(net.n()) {
  const std::uint32_t n = net.n();
  const double ln_n = std::log(std::max<std::uint32_t>(n, 2));
  // Gossip fanout g = ceil(2 ln n) + 2 and echo sample e = ceil(4 ln n) + 4.
  fanout_ = std::min(static_cast<std::uint32_t>(std::ceil(2.0 * ln_n)) + 2, n);
  sample_ = std::min(static_cast<std::uint32_t>(std::ceil(4.0 * ln_n)) + 4, n);
  echo_needed_ = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(std::ceil(kEchoThreshold * sample_)));

  gossip_targets_ = sample_of(system_seed, n, pid, fanout_, "gossip/murmur");
  echo_sample_ = sample_of(system_seed, n, pid, sample_, "gossip/sieve");
  // Public-seed samples let us invert the relation locally: q must echo to
  // every p whose echo sample contains q.
  for (ProcessId p = 0; p < n; ++p) {
    const std::vector<ProcessId> ep =
        sample_of(system_seed, n, p, sample_, "gossip/sieve");
    if (std::find(ep.begin(), ep.end(), pid) != ep.end()) {
      echo_subscribers_.push_back(p);
    }
  }

  net_.subscribe(pid_, net::Channel::kGossip,
                 [this](ProcessId from, const net::Payload& msg) {
                   on_message(from, msg);
                 });
}

void GossipRbc::broadcast(Round r, net::Payload payload) {
  ByteWriter w(payload.size() + 20);
  w.u8(kGossip);
  w.u32(pid_);
  w.u64(r);
  w.blob(payload.view());
  const net::Payload msg(std::move(w).take());
  // The sender seeds dissemination through its own gossip sample and also
  // processes the payload locally (self-delivery path). Every send shares
  // the one encoded buffer.
  for (ProcessId to : gossip_targets_) {
    net_.send(pid_, to, net::Channel::kGossip, msg);
  }
  // The local path keeps a window into the encoded message so the digest
  // memo is shared with the bytes that went out on the wire.
  handle_payload(instances_.try_emplace(InstanceKey{pid_, r}).first,
                 msg.window(1 + 4 + 8 + 4, payload.size()));
}

void GossipRbc::on_message(ProcessId from, const net::Payload& msg) {
  ByteReader in(msg.view());
  const auto type = static_cast<MsgType>(in.u8());

  if (type == kGossip) {
    const ProcessId source = in.u32();
    const Round round = in.u64();
    const std::uint32_t len = in.u32();
    constexpr std::size_t kPayloadOffset = 1 + 4 + 8 + 4;
    if (!in.ok() || in.remaining() != len || source >= net_.n()) return;
    // Integrity: a delivered instance's frames stop here, before any state.
    if (delivered_[source].contains(round)) return;
    const auto it = instances_.try_emplace(InstanceKey{source, round}).first;
    Instance& inst = it->second;
    if (inst.have_payload) return;  // already seen; stop the rumor here
    // Forward before consuming: rumor spreading. The relayed message is
    // byte-identical to the one received, so forward the incoming frame's
    // buffer itself — zero re-encoding, zero copies.
    if (!inst.forwarded) {
      inst.forwarded = true;
      for (ProcessId to : gossip_targets_) {
        if (to != from) net_.send(pid_, to, net::Channel::kGossip, msg);
      }
    }
    handle_payload(it, msg.window(kPayloadOffset, len));
    return;
  }

  if (type == kEcho) {
    const ProcessId source = in.u32();
    const Round round = in.u64();
    Bytes digest_raw = in.raw(crypto::kDigestSize);
    if (!in.done() || source >= net_.n()) return;
    if (delivered_[source].contains(round)) return;
    crypto::Digest digest{};
    std::copy(digest_raw.begin(), digest_raw.end(), digest.begin());
    // Count only echoes from my own echo sample; others carry no evidence.
    if (std::find(echo_sample_.begin(), echo_sample_.end(), from) ==
        echo_sample_.end()) {
      return;
    }
    const auto it = instances_.try_emplace(InstanceKey{source, round}).first;
    it->second.echoes[digest].add(from);
    maybe_deliver(it);
  }
}

void GossipRbc::handle_payload(Instances::iterator it, net::Payload payload) {
  const InstanceKey key = it->first;
  Instance& inst = it->second;
  if (inst.have_payload) return;
  inst.have_payload = true;
  inst.payload = std::move(payload);
  inst.payload_digest = inst.payload.digest();  // memoized on the window
  if (!inst.echoed) {
    inst.echoed = true;
    ByteWriter w(64);
    w.u8(kEcho);
    w.u32(key.source);
    w.u64(key.round);
    w.raw(BytesView{inst.payload_digest.data(), inst.payload_digest.size()});
    const net::Payload msg(std::move(w).take());
    for (ProcessId to : echo_subscribers_) {
      net_.send(pid_, to, net::Channel::kGossip, msg);
    }
  }
  maybe_deliver(it);
}

void GossipRbc::maybe_deliver(Instances::iterator it) {
  const InstanceKey key = it->first;
  Instance& inst = it->second;
  if (!inst.have_payload) return;
  auto votes = inst.echoes.find(inst.payload_digest);
  if (votes == inst.echoes.end() || votes->second.count() < echo_needed_) return;
  // Free the instance and keep only its tombstone.
  net::Payload payload = std::move(inst.payload);
  instances_.erase(it);
  delivered_[key.source].insert(key.round);
  contract_on_deliver(key.source, key.round);
  if (deliver_) deliver_(key.source, key.round, std::move(payload));
}

}  // namespace dr::rbc
