#include "ingress/mempool.hpp"

#include <algorithm>

#include "common/assert.hpp"

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

ShardedMempool::ShardedMempool(MempoolOptions opts) : opts_(opts) {
  DR_ASSERT_MSG(opts_.shards >= 1, "ShardedMempool needs at least one shard");
  shards_.reserve(opts_.shards);
  for (std::uint32_t s = 0; s < opts_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>());
  }
  committed_per_shard_ =
      std::max<std::size_t>(1, opts_.committed_window / opts_.shards);
  const double total =
      static_cast<double>(opts_.shard_capacity) * opts_.shards;
  busy_threshold_ = static_cast<std::size_t>(total * opts_.busy_watermark);
  busy_threshold_ = std::max<std::size_t>(1, busy_threshold_);
}

std::uint32_t ShardedMempool::shard_of(const crypto::Digest& digest) const {
  std::uint64_t h = 0;
  std::memcpy(&h, digest.data(), sizeof(h));
  return static_cast<std::uint32_t>(h % shards_.size());
}

SubmitStatus ShardedMempool::submit(txpool::Transaction tx, TxOrigin origin) {
  if (tx.payload.size() > opts_.max_tx_bytes) {
    rejected_too_large_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kTooLarge;
  }
  const crypto::Digest digest = tx_digest(tx);
  Shard& shard = *shards_[shard_of(digest)];
  std::lock_guard<std::mutex> lk(shard.mu);
  if (shard.committed.count(digest) != 0) {
    rejected_dup_committed_.fetch_add(1, std::memory_order_relaxed);
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
  if (auto it = shard.pending.find(digest); it != shard.pending.end()) {
    rehome(it->second.origin);
    rejected_dup_pending_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kDuplicatePending;
  }
  if (auto it = shard.in_flight.find(digest); it != shard.in_flight.end()) {
    rehome(it->second);
    rejected_dup_pending_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kDuplicatePending;
  }
  if (busy()) {
    rejected_busy_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kBusy;
  }
  if (shard.pending.size() >= opts_.shard_capacity) {
    rejected_overflow_.fetch_add(1, std::memory_order_relaxed);
    return SubmitStatus::kShardFull;
  }
  shard.fifo.push_back(digest);
  shard.pending.emplace(digest, PendingTx{std::move(tx), origin});
  pending_count_.fetch_add(1, std::memory_order_relaxed);
  accepted_.fetch_add(1, std::memory_order_relaxed);
  return SubmitStatus::kAccepted;
}

std::vector<txpool::Transaction> ShardedMempool::drain(std::size_t max_txs) {
  std::vector<txpool::Transaction> out;
  if (max_txs == 0 || pending() == 0) return out;
  out.reserve(std::min(max_txs, pending()));
  // Round-robin across shards from a moving cursor so no shard starves when
  // blocks are smaller than the backlog.
  const auto nshards = static_cast<std::uint32_t>(shards_.size());
  const std::uint32_t start =
      drain_cursor_.fetch_add(1, std::memory_order_relaxed) % nshards;
  for (std::uint32_t i = 0; i < nshards && out.size() < max_txs; ++i) {
    Shard& shard = *shards_[(start + i) % nshards];
    std::lock_guard<std::mutex> lk(shard.mu);
    while (out.size() < max_txs && !shard.fifo.empty()) {
      const crypto::Digest digest = shard.fifo.front();
      shard.fifo.pop_front();
      auto it = shard.pending.find(digest);
      if (it == shard.pending.end()) continue;  // committed out from under us
      out.push_back(std::move(it->second.tx));
      shard.in_flight.emplace(digest, it->second.origin);
      shard.pending.erase(it);
      pending_count_.fetch_sub(1, std::memory_order_relaxed);
      in_flight_count_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  drained_.fetch_add(out.size(), std::memory_order_relaxed);
  return out;
}

std::optional<TxOrigin> ShardedMempool::mark_committed(
    const crypto::Digest& digest) {
  Shard& shard = *shards_[shard_of(digest)];
  std::lock_guard<std::mutex> lk(shard.mu);
  std::optional<TxOrigin> origin;
  if (auto it = shard.in_flight.find(digest); it != shard.in_flight.end()) {
    origin = it->second;
    shard.in_flight.erase(it);
    in_flight_count_.fetch_sub(1, std::memory_order_relaxed);
  } else if (auto p = shard.pending.find(digest); p != shard.pending.end()) {
    // Committed via a foreign node's block before this node proposed it;
    // the fifo entry goes stale and drain() skips it.
    origin = p->second.origin;
    shard.pending.erase(p);
    pending_count_.fetch_sub(1, std::memory_order_relaxed);
  }
  if (shard.committed.insert(digest).second) {
    shard.committed_ring.push_back(digest);
    if (shard.committed_ring.size() > committed_per_shard_) {
      shard.committed.erase(shard.committed_ring.front());
      shard.committed_ring.pop_front();
      window_evictions_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (origin.has_value() && origin->session_id != 0) {
    committed_with_origin_.fetch_add(1, std::memory_order_relaxed);
    return origin;
  }
  committed_foreign_.fetch_add(1, std::memory_order_relaxed);
  return std::nullopt;
}

std::optional<Bytes> ShardedMempool::drain_block(std::size_t max_txs) {
  const std::vector<txpool::Transaction> txs = drain(max_txs);
  if (txs.empty()) return std::nullopt;
  return txpool::encode_block(txs);
}

std::vector<CommittedTx> ShardedMempool::commit_block(BytesView block) {
  std::vector<CommittedTx> out;
  auto decoded = txpool::decode_block(block);
  if (!decoded) return out;
  std::vector<txpool::Transaction> txs = std::move(decoded).value();
  out.reserve(txs.size());
  for (txpool::Transaction& tx : txs) {
    std::optional<TxOrigin> origin = mark_committed(tx_digest(tx));
    out.push_back(CommittedTx{std::move(tx), origin});
  }
  return out;
}

void ShardedMempool::restore_block(BytesView block) {
  auto txs = txpool::decode_block(block);
  if (!txs) return;
  for (const txpool::Transaction& tx : txs.value()) {
    const crypto::Digest digest = tx_digest(tx);
    Shard& shard = *shards_[shard_of(digest)];
    std::lock_guard<std::mutex> lk(shard.mu);
    if (shard.committed.count(digest) != 0 ||
        shard.pending.count(digest) != 0 ||
        shard.in_flight.count(digest) != 0) {
      continue;
    }
    shard.in_flight.emplace(digest, TxOrigin{});
    in_flight_count_.fetch_add(1, std::memory_order_relaxed);
    restored_in_flight_.fetch_add(1, std::memory_order_relaxed);
  }
}

bool ShardedMempool::recently_committed(const crypto::Digest& digest) const {
  const Shard& shard = *shards_[shard_of(digest)];
  std::lock_guard<std::mutex> lk(shard.mu);
  return shard.committed.count(digest) != 0;
}

MempoolStats ShardedMempool::stats() const {
  MempoolStats s;
  s.accepted = accepted_.load(std::memory_order_relaxed);
  s.rejected_busy = rejected_busy_.load(std::memory_order_relaxed);
  s.rejected_dup_pending =
      rejected_dup_pending_.load(std::memory_order_relaxed);
  s.rejected_dup_committed =
      rejected_dup_committed_.load(std::memory_order_relaxed);
  s.rejected_overflow = rejected_overflow_.load(std::memory_order_relaxed);
  s.rejected_too_large = rejected_too_large_.load(std::memory_order_relaxed);
  s.drained = drained_.load(std::memory_order_relaxed);
  s.committed_with_origin =
      committed_with_origin_.load(std::memory_order_relaxed);
  s.committed_foreign = committed_foreign_.load(std::memory_order_relaxed);
  s.window_evictions = window_evictions_.load(std::memory_order_relaxed);
  s.restored_in_flight = restored_in_flight_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dr::ingress
