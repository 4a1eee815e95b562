#include "rbc/bracha.hpp"

#include <algorithm>

namespace dr::rbc {
namespace {

/// Offset of the payload bytes inside an encoded Bracha message:
/// [u8 type][u32 source][u64 round][u32 blob_len] = 17 bytes of header.
constexpr std::size_t kPayloadOffset = 1 + 4 + 8 + 4;

}  // namespace

BrachaRbc::BrachaRbc(net::Bus& net, ProcessId pid)
    : net_(net), pid_(pid), delivered_(net.n()) {
  net_.subscribe(pid_, net::Channel::kBracha,
                 [this](ProcessId from, const net::Payload& msg) {
                   on_message(from, msg);
                 });
}

Bytes BrachaRbc::encode(MsgType type, ProcessId source, Round r,
                        BytesView payload) const {
  ByteWriter w(payload.size() + 20);
  w.u8(type);
  w.u32(source);
  w.u64(r);
  w.blob(payload);
  return std::move(w).take();
}

void BrachaRbc::broadcast(Round r, net::Payload payload) {
  net_.broadcast(pid_, net::Channel::kBracha,
                 encode(kSend, pid_, r, payload.view()));
}

void BrachaRbc::on_message(ProcessId from, const net::Payload& msg) {
  ByteReader in(msg.view());
  const auto type = static_cast<MsgType>(in.u8());
  const ProcessId source = in.u32();
  const Round round = in.u64();
  const std::uint32_t len = in.u32();
  if (!in.ok() || in.remaining() != len || source >= net_.n()) {
    return;  // malformed
  }
  // SEND must come from its claimed source; the network authenticates links,
  // so a Byzantine process cannot forge someone else's broadcast.
  if (type == kSend && from != source) return;
  if (type != kSend && type != kEcho && type != kReady) return;
  // Integrity: a late or replayed frame of a delivered instance (including
  // a restarted peer's re-sends) stops here, before it touches any state.
  if (delivered_[source].contains(round)) return;

  const auto it = instances_.try_emplace(InstanceKey{source, round}).first;
  Instance& inst = it->second;

  // Classify this message's payload against the variants already tracked by
  // raw byte comparison before falling back to hashing: equal bytes imply an
  // equal digest, and in the common (non-equivocating) case every SEND, ECHO
  // and READY of an instance carries the same bytes — so the 2n+1 messages
  // of one well-behaved broadcast cost one SHA-256, not 2n+1.
  const BytesView body{msg.data() + kPayloadOffset, len};
  Variant* variant = nullptr;
  for (Variant& cand : inst.variants) {
    if (cand.payload.size() == len &&
        std::equal(body.begin(), body.end(), cand.payload.view().begin())) {
      variant = &cand;
      break;
    }
  }
  if (variant == nullptr) {
    // First time this byte pattern is seen: hash it once, via a window that
    // shares the message buffer (no copy) and memoizes the digest. Votes are
    // counted per digest, so a variant with this digest takes them.
    net::Payload window = msg.window(kPayloadOffset, len);
    const crypto::Digest& digest = window.digest();
    for (Variant& cand : inst.variants) {
      if (cand.payload.digest() == digest) {
        variant = &cand;
        break;
      }
    }
    if (variant == nullptr) {
      variant = &inst.variants.emplace_back();
      variant->payload = std::move(window);
    }
  }

  switch (type) {
    case kSend: {
      if (!inst.echoed) {
        inst.echoed = true;
        net_.broadcast(pid_, net::Channel::kBracha,
                       encode(kEcho, source, round, variant->payload.view()));
      }
      break;
    }
    case kEcho: {
      variant->echoes.add(from);
      break;
    }
    case kReady: {
      variant->readies.add(from);
      break;
    }
    default:
      return;
  }
  maybe_progress(it, *variant);
}

void BrachaRbc::maybe_progress(Instances::iterator it, Variant& variant) {
  Instance& inst = it->second;
  const InstanceKey key = it->first;
  const std::uint32_t quorum = net_.committee().quorum();
  const std::uint32_t small = net_.committee().small_quorum();

  const bool ready_trigger =
      variant.echoes.count() >= quorum || variant.readies.count() >= small;
  if (ready_trigger && !inst.readied) {
    inst.readied = true;
    net_.broadcast(pid_, net::Channel::kBracha,
                   encode(kReady, key.source, key.round, variant.payload.view()));
  }
  if (variant.readies.count() >= quorum) {
    // Free the instance and keep only its tombstone; `inst` and `variant`
    // dangle from here on.
    net::Payload payload = std::move(variant.payload);
    instances_.erase(it);
    delivered_[key.source].insert(key.round);
    contract_on_deliver(key.source, key.round);
    if (deliver_) deliver_(key.source, key.round, std::move(payload));
  }
}

}  // namespace dr::rbc
