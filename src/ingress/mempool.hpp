// Digest-partitioned mempool (DESIGN.md §13), the one mempool of both
// drivers. On the runtime the ingress I/O thread and any number of client
// threads submit concurrently, the node thread drains blocks, and contention
// stays per-shard; the simulator's workload drivers run it with one shard,
// which makes the drain order plain FIFO.
//
// Identity is the tx digest — sha256 over (id, payload), excluding the
// server-stamped submit_time so a client resubmitting the same logical tx
// (e.g. after a reconnect) maps to the same digest on every node. Each
// digest lives in exactly one shard for its whole life cycle:
//   pending (FIFO, waiting for a block) -> in-flight (drained into a
//   proposal, awaiting a_deliver) -> recently-committed (bounded dedup
//   window so replays after commit don't double-enter the DAG).
//
// The block-level steps (drain_block, commit_block, restore_block) are the
// only place a tx block is encoded or decoded on either driver's path.
#pragma once

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "crypto/sha256.hpp"
#include "ingress/wire.hpp"
#include "txpool/transaction.hpp"

namespace dr::ingress {

/// Content address of one transaction: sha256(le64(id) || payload). Stable
/// across resubmission (submit_time is server-stamped and excluded) and
/// recomputable from a decoded block at every node, which is what lets
/// deliver-side dedup and ack routing key on it.
crypto::Digest tx_digest(const txpool::Transaction& tx);

/// Where a transaction came from, kept while it is pending/in-flight so the
/// commit ack can be routed back to the owning session. session_id 0 means
/// "no session" (internal submission paths); submit_us is on the ingress
/// server's clock.
struct TxOrigin {
  std::uint64_t session_id = 0;
  std::uint64_t client_id = 0;
  std::uint64_t tx_id = 0;
  std::uint64_t submit_us = 0;
};

/// One tx of a delivered block, with the origin commit_block() found for it.
struct CommittedTx {
  txpool::Transaction tx;
  std::optional<TxOrigin> origin;  ///< set only for session-owned txs
};

struct MempoolOptions {
  std::uint32_t shards = 8;
  /// Hard per-shard bound on pending txs; beyond it submit() returns
  /// kShardFull (backpressure, not silent drops).
  std::size_t shard_capacity = 16'384;
  /// Total recently-committed digests remembered for post-commit dedup,
  /// split evenly across shards. Bounded: commits beyond the window are
  /// forgotten and a very late replay would be re-accepted (DESIGN.md §13).
  std::size_t committed_window = 1 << 16;
  /// Fraction of total pending capacity above which admission turns kBusy —
  /// the explicit "DagBuilder is behind" signal, softer than kShardFull.
  double busy_watermark = 0.75;
  std::size_t max_tx_bytes = kMaxTxBytes;
};

/// Monotonic counters, snapshot via stats().
struct MempoolStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_dup_pending = 0;
  std::uint64_t rejected_dup_committed = 0;
  std::uint64_t rejected_overflow = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t drained = 0;
  std::uint64_t committed_with_origin = 0;  ///< commits that owned a session
  std::uint64_t committed_foreign = 0;      ///< committed via another node
  std::uint64_t window_evictions = 0;
  std::uint64_t restored_in_flight = 0;  ///< txs re-registered from the WAL
};

class ShardedMempool {
 public:
  explicit ShardedMempool(MempoolOptions opts = {});

  ShardedMempool(const ShardedMempool&) = delete;
  ShardedMempool& operator=(const ShardedMempool&) = delete;

  /// Full admission pipeline: size gate, committed-window dedup,
  /// pending/in-flight dedup, busy watermark, shard capacity. On
  /// kDuplicatePending from the *same* (client_id, tx_id) — a reconnecting
  /// client resubmitting — the stored origin's session is re-homed to the
  /// new session so the eventual ack follows the client.
  SubmitStatus submit(txpool::Transaction tx, TxOrigin origin);

  /// Drains up to max_txs pending transactions round-robin across shards
  /// (node thread). Drained txs move to the in-flight set: still deduped,
  /// no longer proposable, origins retained for ack routing.
  std::vector<txpool::Transaction> drain(std::size_t max_txs);

  /// Marks one delivered tx digest committed (node thread, a_deliver path):
  /// drops it from pending/in-flight and records it in the bounded
  /// recently-committed window. Returns the origin when this node owned the
  /// submitting session (the ack path), nullopt for foreign or internal txs.
  std::optional<TxOrigin> mark_committed(const crypto::Digest& digest);

  /// drain() into one encoded BAB block (Alg. 1's v.block); nullopt when
  /// nothing was pending.
  std::optional<Bytes> drain_block(std::size_t max_txs);

  /// a_deliver path: mark_committed() for every tx of a delivered block, in
  /// block order, handing back the decoded txs with their origins. Empty for
  /// blocks that carry no txs (auto-block filler, foreign payloads).
  std::vector<CommittedTx> commit_block(BytesView block);

  /// Recovery seeding (node thread, during WAL replay setup): re-registers
  /// the txs of a restored-but-not-yet-delivered own proposal, closing
  /// the at-least-once race where a client resubmit after our restart was
  /// re-accepted into a second block while the WAL'd proposal still held the
  /// tx (double delivery). The restored entry sits in the in-flight set with
  /// an empty origin — the pre-crash session is gone, so the eventual commit
  /// ack is unroutable; the resubmitting client observes kDuplicatePending
  /// now and kDuplicateCommitted once the replayed proposal delivers. No-op
  /// per tx whose digest is already pending, in-flight, or recently
  /// committed, and for blocks that carry no txs.
  void restore_block(BytesView block);

  bool recently_committed(const crypto::Digest& digest) const;

  std::size_t pending() const {
    return pending_count_.load(std::memory_order_relaxed);
  }
  std::size_t in_flight() const {
    return in_flight_count_.load(std::memory_order_relaxed);
  }
  /// The admission signal: pending load at/above the busy watermark.
  bool busy() const {
    return pending() >= busy_threshold_;
  }

  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  std::uint32_t shard_of(const crypto::Digest& digest) const;

  MempoolStats stats() const;
  const MempoolOptions& options() const { return opts_; }

 private:
  struct DigestHash {
    std::size_t operator()(const crypto::Digest& d) const {
      // The digest is already uniform; its first 8 bytes are the hash.
      std::uint64_t h = 0;
      std::memcpy(&h, d.data(), sizeof(h));
      return static_cast<std::size_t>(h);
    }
  };

  struct PendingTx {
    txpool::Transaction tx;
    TxOrigin origin;
  };

  struct Shard {
    mutable std::mutex mu;
    /// FIFO of pending digests; entries whose digest left `pending` (e.g.
    /// committed via a foreign block first) are skipped lazily on drain.
    std::deque<crypto::Digest> fifo;
    std::unordered_map<crypto::Digest, PendingTx, DigestHash> pending;
    std::unordered_map<crypto::Digest, TxOrigin, DigestHash> in_flight;
    std::unordered_set<crypto::Digest, DigestHash> committed;
    std::deque<crypto::Digest> committed_ring;  ///< eviction order
  };

  MempoolOptions opts_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::size_t committed_per_shard_;
  std::size_t busy_threshold_;

  std::atomic<std::size_t> pending_count_{0};
  std::atomic<std::size_t> in_flight_count_{0};
  std::atomic<std::uint32_t> drain_cursor_{0};

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> rejected_busy_{0};
  std::atomic<std::uint64_t> rejected_dup_pending_{0};
  std::atomic<std::uint64_t> rejected_dup_committed_{0};
  std::atomic<std::uint64_t> rejected_overflow_{0};
  std::atomic<std::uint64_t> rejected_too_large_{0};
  std::atomic<std::uint64_t> drained_{0};
  std::atomic<std::uint64_t> committed_with_origin_{0};
  std::atomic<std::uint64_t> committed_foreign_{0};
  std::atomic<std::uint64_t> window_evictions_{0};
  std::atomic<std::uint64_t> restored_in_flight_{0};
};

}  // namespace dr::ingress
