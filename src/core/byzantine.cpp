#include "core/byzantine.hpp"

#include "common/assert.hpp"
#include "dag/vertex.hpp"
#include "rbc/bracha.hpp"

namespace dr::core {
namespace {

/// Mirrors BrachaRbc's SEND wire format (type | source | round | blob), so
/// the strategies below can hand-craft protocol messages the honest
/// implementation would never produce.
Bytes encode_bracha_send(ProcessId source, Round r, BytesView payload) {
  ByteWriter w(payload.size() + 20);
  w.u8(1);  // BrachaRbc::kSend
  w.u32(source);
  w.u64(r);
  w.blob(payload);
  return std::move(w).take();
}

/// Produces a structurally valid conflicting vertex: same edges, different
/// block bytes — the nastiest equivocation variant, indistinguishable from
/// the original except by content.
Bytes mutate_vertex_payload(BytesView payload) {
  auto parsed = dr::dag::Vertex::deserialize(payload);
  if (!parsed) {
    Bytes copy(payload.begin(), payload.end());
    copy.push_back(0xFF);
    return copy;
  }
  dr::dag::Vertex v = std::move(parsed).value();
  v.block.push_back(0xEE);
  return v.serialize();
}

/// kEquivocate: on broadcast(r, m) it hand-crafts two conflicting Bracha
/// SEND messages (payload m and a mutated m') and sends one to each half of
/// the committee. It otherwise participates in the Bracha protocol honestly
/// (echoes, readies) through the wrapped instance, which is the strongest
/// form of this attack: the split quorum can only be resolved by other
/// processes' echoes.
class EquivocatingBrachaRbc final : public ByzantineRbc {
 public:
  EquivocatingBrachaRbc(net::Bus& bus, ProcessId pid)
      : bus_(bus), pid_(pid), inner_(bus, pid) {}

  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }

  void broadcast(Round r, net::Payload payload) override {
    const Bytes variant_b = mutate_vertex_payload(payload.view());
    // Each variant is encoded once; the per-recipient sends share the buffers.
    const net::Payload send_a(encode_bracha_send(pid_, r, payload.view()));
    const net::Payload send_b(encode_bracha_send(pid_, r, variant_b));
    for (ProcessId to = 0; to < bus_.n(); ++to) {
      bus_.send(pid_, to, net::Channel::kBracha, to % 2 == 0 ? send_a : send_b);
    }
    ++equivocations_;
  }
  /// Conflicting SEND pairs launched so far.
  std::uint64_t attacks() const override { return equivocations_; }

 private:
  net::Bus& bus_;
  ProcessId pid_;
  rbc::BrachaRbc inner_;
  std::uint64_t equivocations_ = 0;
};

/// kMute: swallows every own broadcast; everything else (echo/ready
/// participation, delivery of others' vertices) stays honest through the
/// wrapped instance, whose bus subscriptions remain live.
class MuteRbc final : public ByzantineRbc {
 public:
  explicit MuteRbc(std::unique_ptr<rbc::ReliableBroadcast> inner)
      : inner_(std::move(inner)) {}

  void set_deliver(DeliverFn fn) override { inner_->set_deliver(std::move(fn)); }
  void broadcast(Round, net::Payload) override { ++withheld_; }
  std::uint64_t attacks() const override { return withheld_; }

 private:
  std::unique_ptr<rbc::ReliableBroadcast> inner_;
  std::uint64_t withheld_ = 0;
};

/// kSelective: hand-crafts its Bracha SEND and delivers it only to the
/// quorum-sized window of ids starting at itself; the remaining f processes
/// never see a first-hand copy and must rely on echo amplification.
class SelectiveRbc final : public ByzantineRbc {
 public:
  SelectiveRbc(net::Bus& bus, ProcessId pid)
      : bus_(bus), pid_(pid), inner_(bus, pid) {}

  void set_deliver(DeliverFn fn) override { inner_.set_deliver(std::move(fn)); }

  void broadcast(Round r, net::Payload payload) override {
    const net::Payload send(encode_bracha_send(pid_, r, payload.view()));
    const std::uint32_t n = bus_.n();
    const std::uint32_t favored = quorum_2f1(n);
    for (std::uint32_t i = 0; i < favored; ++i) {
      const ProcessId to = (pid_ + i) % n;
      bus_.send(pid_, to, net::Channel::kBracha, send);
    }
    ++attacks_;
  }
  std::uint64_t attacks() const override { return attacks_; }

 private:
  net::Bus& bus_;
  ProcessId pid_;
  rbc::BrachaRbc inner_;
  std::uint64_t attacks_ = 0;
};

}  // namespace

const char* to_string(FaultKind fault) {
  switch (fault) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCrash: return "crash";
    case FaultKind::kMute: return "mute";
    case FaultKind::kEquivocate: return "equivocate";
    case FaultKind::kSelective: return "selective";
    case FaultKind::kStealthy: return "stealthy";
  }
  return "?";
}

bool stack_plays(FaultKind fault) {
  return fault == FaultKind::kMute || fault == FaultKind::kEquivocate ||
         fault == FaultKind::kSelective;
}

std::unique_ptr<ByzantineRbc> make_byzantine_rbc(
    FaultKind fault, net::Bus& bus, ProcessId pid,
    std::unique_ptr<rbc::ReliableBroadcast> inner) {
  DR_ASSERT_MSG(stack_plays(fault), "no attacking RBC for this fault");
  if (fault == FaultKind::kMute) {
    return std::make_unique<MuteRbc>(std::move(inner));
  }
  if (fault == FaultKind::kEquivocate) {
    return std::make_unique<EquivocatingBrachaRbc>(bus, pid);
  }
  return std::make_unique<SelectiveRbc>(bus, pid);
}

}  // namespace dr::core
