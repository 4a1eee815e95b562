#include "ingress/mempool.hpp"

#include <algorithm>

namespace dr::ingress {

crypto::Digest tx_digest(const txpool::Transaction& tx) {
  // Codec-boundary hash (sanctioned in tools/daglint/sha256_allowlist.txt):
  // the tx identity must be recomputable from a decoded block alone, so it
  // covers exactly the replay-stable fields — id and payload, never the
  // server-stamped submit_time.
  ByteWriter w(8 + tx.payload.size());
  w.u64(tx.id);
  w.raw(tx.payload);
  return crypto::sha256(BytesView(w.bytes()));
}

SubmitStatus Mempool::submit(txpool::Transaction tx, TxOrigin origin) {
  if (tx.payload.size() > kMaxTxBytes) {
    std::lock_guard<std::mutex> lk(mu_);
    ++stats_.rejected_too_large;
    return SubmitStatus::kTooLarge;
  }
  const crypto::Digest digest = tx_digest(tx);
  std::lock_guard<std::mutex> lk(mu_);
  if (committed_.count(digest) != 0) {
    ++stats_.rejected_dup_committed;
    return SubmitStatus::kDuplicateCommitted;
  }
  // Reconnect re-homing: the same logical tx resubmitted from a new session
  // keeps its place (and original submit_us, so latency stays end-to-end)
  // but acks now route to the live session instead of the dead one.
  auto rehome = [&origin](TxOrigin& stored) {
    if (origin.session_id != 0 && stored.client_id == origin.client_id &&
        stored.tx_id == origin.tx_id) {
      stored.session_id = origin.session_id;
      if (stored.submit_us == 0) stored.submit_us = origin.submit_us;
    }
  };
  if (auto it = pending_.find(digest); it != pending_.end()) {
    rehome(it->second.origin);
    ++stats_.rejected_dup_pending;
    return SubmitStatus::kDuplicatePending;
  }
  if (auto it = in_flight_.find(digest); it != in_flight_.end()) {
    rehome(it->second);
    ++stats_.rejected_dup_pending;
    return SubmitStatus::kDuplicatePending;
  }
  if (pending_.size() >= kMaxPending) {
    ++stats_.rejected_busy;
    return SubmitStatus::kBusy;
  }
  fifo_.push_back(digest);
  pending_.emplace(digest, PendingTx{std::move(tx), origin});
  ++stats_.accepted;
  return SubmitStatus::kAccepted;
}

std::vector<txpool::Transaction> Mempool::drain(std::size_t max_txs) {
  std::vector<txpool::Transaction> out;
  std::lock_guard<std::mutex> lk(mu_);
  out.reserve(std::min(max_txs, pending_.size()));
  while (out.size() < max_txs && !fifo_.empty()) {
    const crypto::Digest digest = fifo_.front();
    fifo_.pop_front();
    auto it = pending_.find(digest);
    if (it == pending_.end()) continue;  // committed out from under us
    out.push_back(std::move(it->second.tx));
    in_flight_.emplace(digest, it->second.origin);
    pending_.erase(it);
  }
  stats_.drained += out.size();
  return out;
}

std::optional<TxOrigin> Mempool::mark_committed(const crypto::Digest& digest) {
  std::lock_guard<std::mutex> lk(mu_);
  return mark_committed_locked(digest);
}

std::optional<TxOrigin> Mempool::mark_committed_locked(
    const crypto::Digest& digest) {
  std::optional<TxOrigin> origin;  // set iff this node held the digest
  if (auto it = in_flight_.find(digest); it != in_flight_.end()) {
    origin = it->second;
    in_flight_.erase(it);
  } else if (auto p = pending_.find(digest); p != pending_.end()) {
    // Committed via a foreign node's block before this node proposed it;
    // the fifo entry goes stale and drain() skips it.
    origin = p->second.origin;
    pending_.erase(p);
  }
  if (committed_.insert(digest).second) {
    committed_ring_.push_back(digest);
    if (committed_ring_.size() > kCommittedWindow) {
      committed_.erase(committed_ring_.front());
      committed_ring_.pop_front();
      ++stats_.window_evictions;
    }
  }
  if (!origin.has_value()) {
    ++stats_.committed_foreign;
    return std::nullopt;
  }
  if (origin->session_id == 0) return std::nullopt;
  ++stats_.committed_with_origin;
  return origin;
}

std::optional<Bytes> Mempool::drain_block(std::size_t max_txs) {
  const std::vector<txpool::Transaction> txs = drain(max_txs);
  if (txs.empty()) return std::nullopt;
  return txpool::encode_block(txs);
}

std::vector<CommittedTx> Mempool::commit_block(BytesView block) {
  std::vector<CommittedTx> out;
  auto decoded = txpool::decode_block(block);
  if (!decoded) return out;
  std::vector<txpool::Transaction> txs = std::move(decoded).value();
  std::vector<crypto::Digest> digests;
  digests.reserve(txs.size());
  for (const txpool::Transaction& tx : txs) digests.push_back(tx_digest(tx));
  out.reserve(txs.size());
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    std::optional<TxOrigin> origin = mark_committed_locked(digests[i]);
    out.push_back(CommittedTx{std::move(txs[i]), origin});
  }
  return out;
}

void Mempool::restore_block(BytesView block) {
  auto txs = txpool::decode_block(block);
  if (!txs) return;
  std::lock_guard<std::mutex> lk(mu_);
  for (const txpool::Transaction& tx : txs.value()) {
    const crypto::Digest digest = tx_digest(tx);
    if (committed_.count(digest) != 0 || pending_.count(digest) != 0 ||
        in_flight_.count(digest) != 0) {
      continue;
    }
    in_flight_.emplace(digest, TxOrigin{});
    ++stats_.restored_in_flight;
  }
}

bool Mempool::recently_committed(const crypto::Digest& digest) const {
  std::lock_guard<std::mutex> lk(mu_);
  return committed_.count(digest) != 0;
}

std::size_t Mempool::pending() const {
  std::lock_guard<std::mutex> lk(mu_);
  return pending_.size();
}

std::size_t Mempool::in_flight() const {
  std::lock_guard<std::mutex> lk(mu_);
  return in_flight_.size();
}

MempoolStats Mempool::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace dr::ingress
