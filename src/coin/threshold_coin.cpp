#include "coin/threshold_coin.hpp"

#include "common/bytes.hpp"

namespace dr::coin {

ThresholdCoin::ThresholdCoin(net::Bus& net, ProcessCoinKey key,
                             bool broadcast_shares)
    : net_(net), key_(key), broadcast_shares_(broadcast_shares) {
  net_.subscribe(key_.pid(), net::Channel::kCoin,
                 [this](ProcessId from, const net::Payload& payload) {
                   on_message(from, payload.view());
                 });
}

void ThresholdCoin::choose_leader(Wave w, std::function<void(ProcessId)> cb) {
  Instance& inst = instances_[w];
  if (inst.leader.has_value()) {
    cb(*inst.leader);
    return;
  }
  inst.waiting.push_back(std::move(cb));
  if (!inst.share_sent && broadcast_shares_) {
    inst.share_sent = true;
    const crypto::ShamirShare share = key_.my_share(w);
    ByteWriter msg(16);
    msg.u64(w);
    msg.u64(share.y);
    net_.broadcast(key_.pid(), net::Channel::kCoin, std::move(msg).take());
    // Our own share also arrives via the broadcast self-delivery, so no
    // local insertion is needed here.
  }
}

void ThresholdCoin::on_message(ProcessId from, BytesView payload) {
  ByteReader in(payload);
  const Wave w = in.u64();
  const std::uint64_t y = in.u64();
  if (!in.done()) return;  // malformed — drop
  ingest_share(from, w, y);
}

void ThresholdCoin::ingest_share(ProcessId from, Wave w, std::uint64_t y) {
  const std::uint64_t x = from + 1;
  if (!key_.verifier().verify_share(w, x, y)) return;  // Byzantine garbage
  Instance& inst = instances_[w];
  if (inst.leader.has_value()) return;
  inst.shares.emplace(x, y);
  try_reconstruct(w, inst);
}

void ThresholdCoin::try_reconstruct(Wave w, Instance& inst) {
  if (inst.shares.size() < key_.threshold()) return;
  std::vector<crypto::ShamirShare> pts;
  pts.reserve(key_.threshold());
  for (const auto& [x, y] : inst.shares) {
    pts.push_back(crypto::ShamirShare{x, y});
    if (pts.size() == key_.threshold()) break;
  }
  const std::uint64_t secret = crypto::Shamir::reconstruct(pts);
  inst.leader = leader_from_secret(secret, w, net_.n());
  auto waiting = std::move(inst.waiting);
  inst.waiting.clear();
  for (auto& cb : waiting) cb(*inst.leader);
}

bool ThresholdCoin::has_value(Wave w) const {
  auto it = instances_.find(w);
  return it != instances_.end() && it->second.leader.has_value();
}

}  // namespace dr::coin
