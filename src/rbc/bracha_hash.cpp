#include "rbc/bracha_hash.hpp"

namespace dr::rbc {
namespace {

/// Offset of the payload bytes inside kSend / kPayload messages:
/// [u8 type][u32 source][u64 round][u32 blob_len].
constexpr std::size_t kPayloadOffset = 1 + 4 + 8 + 4;

}  // namespace

BrachaHashRbc::BrachaHashRbc(net::Bus& net, ProcessId pid)
    : net_(net), pid_(pid) {
  net_.subscribe(pid_, net::Channel::kBracha,
                 [this](ProcessId from, const net::Payload& msg) {
                   on_message(from, msg);
                 });
}

Bytes BrachaHashRbc::header(MsgType type, ProcessId source, Round r) const {
  ByteWriter w(64);
  w.u8(type);
  w.u32(source);
  w.u64(r);
  return std::move(w).take();
}

void BrachaHashRbc::broadcast(Round r, net::Payload payload) {
  ByteWriter w(payload.size() + 20);
  w.u8(kSend);
  w.u32(pid_);
  w.u64(r);
  w.blob(payload.view());
  net_.broadcast(pid_, net::Channel::kBracha, std::move(w).take());
}

void BrachaHashRbc::on_message(ProcessId from, const net::Payload& msg) {
  ByteReader in(msg.view());
  const auto type = static_cast<MsgType>(in.u8());
  const ProcessId source = in.u32();
  const Round round = in.u64();
  if (!in.ok() || source >= net_.n()) return;
  const InstanceKey key{source, round};
  Instance& inst = instances_[key];

  switch (type) {
    case kSend: {
      const std::uint32_t len = in.u32();
      if (!in.ok() || in.remaining() != len || from != source) return;
      if (!inst.have_payload) {
        // Window into the SEND frame: no copy, and the digest memo rides the
        // window so delivery/fetch verification never re-hashes.
        inst.payload = msg.window(kPayloadOffset, len);
        inst.payload_digest = inst.payload.digest();
        inst.have_payload = true;
      }
      if (!inst.echoed) {
        inst.echoed = true;
        ByteWriter w(64);
        w.u8(kEcho);
        w.u32(source);
        w.u64(round);
        w.raw(BytesView{inst.payload_digest.data(), inst.payload_digest.size()});
        net_.broadcast(pid_, net::Channel::kBracha, std::move(w).take());
      }
      maybe_progress(key, inst.payload_digest);
      break;
    }
    case kEcho:
    case kReady: {
      Bytes draw = in.raw(crypto::kDigestSize);
      if (!in.done()) return;
      crypto::Digest d{};
      std::copy(draw.begin(), draw.end(), d.begin());
      PerDigest& pd = inst.by_digest[d];
      if (type == kEcho) {
        pd.echoes.insert(from);
      } else {
        pd.readies.add(from);
      }
      maybe_progress(key, d);
      break;
    }
    case kFetch: {
      Bytes draw = in.raw(crypto::kDigestSize);
      if (!in.done()) return;
      crypto::Digest d{};
      std::copy(draw.begin(), draw.end(), d.begin());
      if (!inst.have_payload || inst.payload_digest != d) return;
      ByteWriter w(inst.payload.size() + 20);
      w.u8(kPayload);
      w.u32(source);
      w.u64(round);
      w.blob(inst.payload.view());
      net_.send(pid_, from, net::Channel::kBracha, std::move(w).take());
      break;
    }
    case kPayload: {
      const std::uint32_t len = in.u32();
      if (!in.ok() || in.remaining() != len || inst.have_payload) return;
      net::Payload body = msg.window(kPayloadOffset, len);
      const crypto::Digest d = body.digest();
      // Accept only a payload we are actually waiting on (READY quorum for
      // this digest exists); a Byzantine responder cannot plant junk.
      auto it = inst.by_digest.find(d);
      if (it == inst.by_digest.end() ||
          it->second.readies.count() < net_.committee().quorum()) {
        return;
      }
      inst.payload_digest = d;
      inst.payload = std::move(body);
      inst.have_payload = true;
      maybe_progress(key, d);
      break;
    }
    default:
      return;
  }
}

void BrachaHashRbc::maybe_progress(const InstanceKey& key,
                                   const crypto::Digest& digest) {
  Instance& inst = instances_[key];
  if (inst.delivered) return;
  PerDigest& pd = inst.by_digest[digest];
  const std::uint32_t quorum = net_.committee().quorum();
  const std::uint32_t small = net_.committee().small_quorum();

  if (!inst.readied &&
      (pd.echoes.size() >= quorum || pd.readies.count() >= small)) {
    inst.readied = true;
    ByteWriter w(64);
    w.u8(kReady);
    w.u32(key.source);
    w.u64(key.round);
    w.raw(BytesView{digest.data(), digest.size()});
    net_.broadcast(pid_, net::Channel::kBracha, std::move(w).take());
  }
  if (pd.readies.count() < quorum) return;

  if (inst.have_payload && inst.payload_digest == digest) {
    inst.delivered = true;
    // Keep the payload: laggards that saw only READY digests pull it from
    // echoers/deliverers after the fact.
    inst.by_digest.clear();
    contract_on_deliver(key.source, key.round);
    if (deliver_) deliver_(key.source, key.round, inst.payload);
    return;
  }
  // Pull the payload from everyone who echoed it (correct echoers hold
  // it); the first digest-matching PAYLOAD completes delivery. Incremental:
  // each newly seen echoer gets one FETCH, so late echoes still unblock us.
  ByteWriter w(64);
  w.u8(kFetch);
  w.u32(key.source);
  w.u64(key.round);
  w.raw(BytesView{digest.data(), digest.size()});
  const net::Payload fetch(std::move(w).take());
  for (ProcessId holder : pd.echoes) {
    if (pd.fetched_from.add(holder)) {
      net_.send(pid_, holder, net::Channel::kBracha, fetch);
    }
  }
}

}  // namespace dr::rbc
