#include "baselines/vaba/vaba.hpp"

#include "common/assert.hpp"
#include "crypto/sha256.hpp"

namespace dr::baselines {
namespace {

Bytes header(std::uint8_t type, SlotId slot, std::uint64_t view) {
  ByteWriter w(24);
  w.u8(type);
  w.u64(slot);
  w.u64(view);
  return std::move(w).take();
}

}  // namespace

Vaba::Vaba(sim::Network& net, ProcessId pid, coin::Coin& coin, DecideFn decide,
           sim::Channel channel)
    : net_(net), pid_(pid), coin_(coin), decide_(std::move(decide)),
      channel_(channel) {
  net_.subscribe(pid_, channel_, [this](ProcessId from, const net::Payload& msg) {
    on_message(from, msg.view());
  });
}

std::uint64_t Vaba::coin_instance(SlotId slot, std::uint64_t view) {
  std::uint8_t buf[16];
  for (int i = 0; i < 8; ++i) buf[i] = static_cast<std::uint8_t>(slot >> (8 * i));
  for (int i = 0; i < 8; ++i) buf[8 + i] = static_cast<std::uint8_t>(view >> (8 * i));
  return crypto::digest_prefix_u64(
      crypto::sha256_tagged("vaba/coin", {BytesView{buf, 16}}));
}

void Vaba::propose(SlotId slot, Bytes value) {
  SlotState& st = slots_[slot];
  if (st.proposing || st.decided) return;
  st.proposing = true;
  st.my_value = std::move(value);
  enter_view(slot, st.view);
}

void Vaba::enter_view(SlotId slot, std::uint64_t view) {
  SlotState& st = slots_[slot];
  if (st.decided) return;
  st.views.try_emplace(view);
  broadcast_step(slot, view, 1);
  // Messages for this view may have piled up while we lagged behind.
  maybe_abandon(slot, view);
  maybe_finish_view(slot, view);
}

void Vaba::broadcast_step(SlotId slot, std::uint64_t view, std::uint32_t step) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  vs.my_step = step;
  ByteWriter w(st.my_value.size() + 32);
  w.u8(kStep);
  w.u64(slot);
  w.u64(view);
  w.u32(step);
  w.blob(st.my_value);
  net_.broadcast(pid_, channel_, std::move(w).take());
}

bool Vaba::decided(SlotId slot) const {
  auto it = slots_.find(slot);
  return it != slots_.end() && it->second.decided;
}

std::uint64_t Vaba::views_used(SlotId slot) const {
  auto it = slots_.find(slot);
  return it != slots_.end() ? it->second.decided_view : 0;
}

void Vaba::on_message(ProcessId from, BytesView data) {
  ByteReader in(data);
  const std::uint8_t type = in.u8();
  if (type == kDecide) {
    const SlotId slot = in.u64();
    const ProcessId proposer = in.u32();
    Bytes value = in.blob();
    if (!in.done() || proposer >= net_.n()) return;
    handle_decide(slot, proposer, std::move(value));
    return;
  }
  const SlotId slot = in.u64();
  const std::uint64_t view = in.u64();
  switch (type) {
    case kStep: {
      const std::uint32_t step = in.u32();
      Bytes value = in.blob();
      if (!in.done() || step < 1 || step > kSteps) return;
      handle_step(slot, view, from, step, std::move(value));
      break;
    }
    case kAck: {
      const std::uint32_t step = in.u32();
      if (!in.done() || step < 1 || step > kSteps) return;
      handle_ack(slot, view, from, step);
      break;
    }
    case kDone: {
      if (!in.done()) return;
      handle_done(slot, view, from);
      break;
    }
    case kViewChange: {
      if (!in.ok()) return;
      handle_view_change(slot, view, from,
                         data.subspan(17));  // body after type|slot|view
      break;
    }
    default:
      break;
  }
}

void Vaba::handle_step(SlotId slot, std::uint64_t view, ProcessId from,
                       std::uint32_t step, Bytes value) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  Promotion& promo = vs.promotions[from];
  if (step > promo.max_step) {
    promo.max_step = step;
    promo.value = std::move(value);
  }
  if (vs.abandoned || st.decided) return;  // stop acking after abandon
  ByteWriter w(32);
  w.u8(kAck);
  w.u64(slot);
  w.u64(view);
  w.u32(step);
  net_.send(pid_, from, channel_, std::move(w).take());
}

void Vaba::handle_ack(SlotId slot, std::uint64_t view, ProcessId from,
                      std::uint32_t step) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  if (step > kSteps) return;
  vs.acks[step].insert(from);
  if (step != vs.my_step || st.decided) return;
  if (vs.acks[step].size() < net_.committee().quorum()) return;
  if (step < kSteps) {
    broadcast_step(slot, view, step + 1);
  } else if (!vs.done_sent) {
    vs.done_sent = true;
    net_.broadcast(pid_, channel_, header(kDone, slot, view));
  }
}

void Vaba::handle_done(SlotId slot, std::uint64_t view, ProcessId from) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  vs.dones.insert(from);
  maybe_abandon(slot, view);
}

void Vaba::maybe_abandon(SlotId slot, std::uint64_t view) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  if (vs.abandoned || st.decided) return;
  if (vs.dones.size() < net_.committee().quorum()) return;
  vs.abandoned = true;
  if (!vs.coin_requested) {
    vs.coin_requested = true;
    // Retroactive leader election — the coin reveals the view's leader only
    // after 2f+1 promotions finished, exactly like DAG-Rider's waves.
    coin_.choose_leader(coin_instance(slot, view),
                        [this, slot, view](ProcessId leader) {
                          on_coin(slot, view, leader);
                        });
  }
}

void Vaba::on_coin(SlotId slot, std::uint64_t view, ProcessId leader) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  vs.leader = leader;
  // Report the leader's highest promotion step we witnessed.
  const Promotion& promo = vs.promotions[leader];
  ByteWriter w(promo.value.size() + 40);
  w.u8(kViewChange);
  w.u64(slot);
  w.u64(view);
  w.u32(promo.max_step);
  w.blob(promo.value);
  net_.broadcast(pid_, channel_, std::move(w).take());
  // Process reports that raced ahead of our coin callback.
  auto pending = std::move(vs.pending_vc);
  vs.pending_vc.clear();
  for (auto& [from, body] : pending) {
    process_vc(slot, view, from, body);
  }
}

void Vaba::handle_view_change(SlotId slot, std::uint64_t view, ProcessId from,
                              BytesView body) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  if (!vs.leader.has_value()) {
    vs.pending_vc.emplace_back(from, Bytes(body.begin(), body.end()));
    return;
  }
  process_vc(slot, view, from, body);
}

void Vaba::process_vc(SlotId slot, std::uint64_t view, ProcessId from,
                      BytesView body) {
  ByteReader in(body);
  const std::uint32_t step = in.u32();
  Bytes value = in.blob();
  if (!in.done()) return;
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  if (!vs.vc_senders.insert(from).second) return;
  if (step > vs.vc_max_step) {
    vs.vc_max_step = step;
    vs.vc_value = std::move(value);
  }
  maybe_finish_view(slot, view);
}

void Vaba::maybe_finish_view(SlotId slot, std::uint64_t view) {
  SlotState& st = slots_[slot];
  ViewState& vs = st.views[view];
  if (st.decided || view != st.view) return;
  if (vs.vc_senders.size() < net_.committee().quorum()) return;
  DR_ASSERT(vs.leader.has_value());

  if (vs.vc_max_step >= kSteps) {
    // Commit proof witnessed: decide the leader's value and short-circuit
    // laggards (stands in for gossiping the commit proof).
    st.decided = true;
    st.decided_view = view;
    ByteWriter w(vs.vc_value.size() + 24);
    w.u8(kDecide);
    w.u64(slot);
    w.u32(*vs.leader);
    w.blob(vs.vc_value);
    net_.broadcast(pid_, channel_, std::move(w).take());
    if (decide_) decide_(slot, *vs.leader, vs.vc_value);
    return;
  }
  if (vs.vc_max_step >= 2) {
    // Key witnessed: adopt the leader's value for re-proposal.
    st.my_value = vs.vc_value;
  }
  st.view = view + 1;
  enter_view(slot, st.view);
}

void Vaba::handle_decide(SlotId slot, ProcessId proposer, Bytes value) {
  SlotState& st = slots_[slot];
  if (st.decided) return;
  st.decided = true;
  st.decided_view = st.view;
  // Relay once so every correct process terminates even if the original
  // decider's broadcast partially predated a crash.
  ByteWriter w(value.size() + 24);
  w.u8(kDecide);
  w.u64(slot);
  w.u32(proposer);
  w.blob(value);
  net_.broadcast(pid_, channel_, std::move(w).take());
  if (decide_) decide_(slot, proposer, value);
}

}  // namespace dr::baselines
