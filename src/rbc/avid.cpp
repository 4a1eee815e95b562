#include "rbc/avid.hpp"

#include "common/assert.hpp"

namespace dr::rbc {
namespace {

/// Wire format shared by DISPERSE and ECHO:
/// type u8 | source u32 | round u64 | root 32B | frag_index u32 |
/// frag blob | proof blob
struct FragmentMsg {
  std::uint8_t type = 0;
  ProcessId source = 0;
  Round round = 0;
  dr::crypto::Digest root{};
  std::uint32_t frag_index = 0;
  Bytes fragment;
  dr::crypto::MerkleProof proof;
};

bool parse_fragment_msg(BytesView data, FragmentMsg& out) {
  ByteReader in(data);
  out.type = in.u8();
  out.source = in.u32();
  out.round = in.u64();
  Bytes root = in.raw(dr::crypto::kDigestSize);
  out.frag_index = in.u32();
  out.fragment = in.blob();
  if (!in.ok()) return false;
  std::copy(root.begin(), root.end(), out.root.begin());
  if (!dr::crypto::MerkleProof::deserialize(in, out.proof)) return false;
  return in.done();
}

}  // namespace

AvidRbc::AvidRbc(net::Bus& net, ProcessId pid)
    : net_(net),
      pid_(pid),
      rs_(net.committee().small_quorum(),            // k = f+1 data shards
          net.n() - net.committee().small_quorum()),  // m = n-f-1 parity
      delivered_(net.n()) {
  net_.subscribe(pid_, net::Channel::kAvid,
                 [this](ProcessId from, const net::Payload& msg) {
                   on_message(from, msg.view());
                 });
}

void AvidRbc::broadcast(Round r, net::Payload payload) {
  // AVID sends a distinct fragment to each peer, so the fan-out is
  // inherently per-recipient; the shared-buffer optimization does not apply.
  const std::vector<Bytes> fragments = rs_.encode(payload.view());
  DR_ASSERT(fragments.size() == net_.n());
  const crypto::MerkleTree tree(fragments);
  for (ProcessId to = 0; to < net_.n(); ++to) {
    ByteWriter w(fragments[to].size() + 128);
    w.u8(kDisperse);
    w.u32(pid_);
    w.u64(r);
    w.raw(BytesView{tree.root().data(), tree.root().size()});
    w.u32(to);  // fragment index == recipient id
    w.blob(fragments[to]);
    const Bytes proof = tree.prove(to).serialize();
    w.raw(proof);
    net_.send(pid_, to, net::Channel::kAvid, std::move(w).take());
  }
}

void AvidRbc::on_message(ProcessId from, BytesView data) {
  if (data.empty()) return;
  const std::uint8_t type = data[0];

  if (type == kReady) {
    ByteReader in(data);
    in.u8();
    const ProcessId source = in.u32();
    const Round round = in.u64();
    Bytes root_raw = in.raw(crypto::kDigestSize);
    if (!in.done() || source >= net_.n()) return;
    if (delivered_[source].contains(round)) return;
    crypto::Digest root{};
    std::copy(root_raw.begin(), root_raw.end(), root.begin());
    const auto it = instances_.try_emplace(InstanceKey{source, round}).first;
    it->second.by_root[root].ready_senders.add(from);
    maybe_progress(it, root);
    return;
  }

  FragmentMsg msg;
  if (!parse_fragment_msg(data, msg)) return;
  if (msg.source >= net_.n() || msg.frag_index >= net_.n()) return;
  // Integrity: a delivered instance answers nothing more; its frames stop
  // here, before any proof check or state.
  if (delivered_[msg.source].contains(msg.round)) return;
  if (msg.type == kDisperse && from != msg.source) return;  // forged sender
  // An echo must carry the echoer's own fragment; anything else inflates a
  // single Byzantine process into many fragment slots.
  if (msg.type == kEcho && msg.frag_index != from) return;
  if (msg.type == kDisperse && msg.frag_index != pid_) return;
  if (!crypto::MerkleTree::verify(msg.root, msg.fragment, msg.proof)) return;
  if (msg.proof.leaf_count != net_.n()) return;

  const auto it = instances_.try_emplace(InstanceKey{msg.source, msg.round}).first;
  Instance& inst = it->second;
  PerRoot& pr = inst.by_root[msg.root];

  switch (msg.type) {
    case kDisperse: {
      pr.fragments.emplace(msg.frag_index, msg.fragment);
      if (!inst.echoed) {
        inst.echoed = true;
        ByteWriter w(msg.fragment.size() + 128);
        w.u8(kEcho);
        w.u32(msg.source);
        w.u64(msg.round);
        w.raw(BytesView{msg.root.data(), msg.root.size()});
        w.u32(pid_);
        w.blob(msg.fragment);
        w.raw(msg.proof.serialize());
        net_.broadcast(pid_, net::Channel::kAvid, std::move(w).take());
      }
      break;
    }
    case kEcho: {
      pr.fragments.emplace(msg.frag_index, msg.fragment);
      pr.echo_senders.add(from);
      break;
    }
    default:
      return;
  }
  maybe_progress(it, msg.root);
}

bool AvidRbc::ensure_payload(PerRoot& pr, const crypto::Digest& root) {
  if (pr.encoding_checked) return pr.encoding_ok;
  if (pr.fragments.size() < rs_.data_shards()) return false;
  pr.encoding_checked = true;
  pr.encoding_ok = false;

  std::vector<std::optional<Bytes>> shards(net_.n());
  for (const auto& [idx, frag] : pr.fragments) shards[idx] = frag;
  auto decoded = rs_.decode(shards);
  if (!decoded) return false;

  // Re-encode and check the full fragment vector against the Merkle root:
  // this catches a Byzantine sender that dispersed fragments of *different*
  // codewords under one root.
  const std::vector<Bytes> full = rs_.encode(decoded.value());
  const crypto::MerkleTree tree(full);
  if (tree.root() != root) return false;

  pr.reconstructed = std::move(decoded).value();
  pr.encoding_ok = true;
  return true;
}

void AvidRbc::maybe_progress(Instances::iterator it, const crypto::Digest& root) {
  const InstanceKey key = it->first;
  Instance& inst = it->second;
  PerRoot& pr = inst.by_root[root];
  const std::uint32_t quorum = net_.committee().quorum();
  const std::uint32_t small = net_.committee().small_quorum();

  const bool echo_quorum = pr.echo_senders.count() >= quorum;
  const bool ready_amplify = pr.ready_senders.count() >= small;
  if (!inst.readied && (ready_amplify || (echo_quorum && ensure_payload(pr, root)))) {
    inst.readied = true;
    ByteWriter w(64);
    w.u8(kReady);
    w.u32(key.source);
    w.u64(key.round);
    w.raw(BytesView{root.data(), root.size()});
    net_.broadcast(pid_, net::Channel::kAvid, std::move(w).take());
  }
  if (pr.ready_senders.count() >= quorum && ensure_payload(pr, root)) {
    // Free the instance and keep only its tombstone; `inst` and `pr`
    // dangle from here on.
    Bytes payload = std::move(*pr.reconstructed);
    instances_.erase(it);
    delivered_[key.source].insert(key.round);
    contract_on_deliver(key.source, key.round);
    if (deliver_) deliver_(key.source, key.round, net::Payload(std::move(payload)));
  }
}

}  // namespace dr::rbc
