// The node runtime's mempool (DESIGN.md §13): one mutex over one pending
// FIFO, one in-flight map and one recently-committed window, so blocks
// drain oldest-first. Two kinds of thread touch it: submitters (the ingress
// I/O thread, callers of Node::submit_tx) and the node thread, which drains
// proposals and marks delivered blocks committed.
//
// Identity is the tx digest — sha256 over (id, payload), excluding the
// server-stamped submit_time so a client resubmitting the same logical tx
// (e.g. after a reconnect) maps to the same digest on every node. Each
// digest moves through:
//   pending (FIFO, waiting for a block) -> in-flight (drained into a
//   proposal, awaiting a_deliver) -> recently-committed (bounded dedup
//   window so replays after commit don't double-enter the DAG).
//
// The block-level steps (drain_block, commit_block, restore_block) are the
// only place a tx block is encoded or decoded on the node's path.
#pragma once

#include <cstring>
#include <deque>
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

/// Recently-committed digests remembered for post-commit dedup. Bounded:
/// commits beyond the window are forgotten and a very late replay would be
/// re-accepted (DESIGN.md §13).
inline constexpr std::size_t kCommittedWindow = 1 << 16;

/// Pending txs at which submit() turns kBusy — the explicit "DagBuilder is
/// behind" backpressure signal (clients back off; nothing is dropped). The
/// one admission bound: kShardFull stays on the wire but is never sent.
inline constexpr std::size_t kMaxPending = 98'304;

/// Monotonic counters, snapshot via stats().
struct MempoolStats {
  std::uint64_t accepted = 0;
  std::uint64_t rejected_busy = 0;
  std::uint64_t rejected_dup_pending = 0;
  std::uint64_t rejected_dup_committed = 0;
  std::uint64_t rejected_too_large = 0;
  std::uint64_t drained = 0;
  std::uint64_t committed_with_origin = 0;  ///< commits that owned a session
  /// Committed via another node: this node held the digest neither pending
  /// nor in flight.
  std::uint64_t committed_foreign = 0;
  std::uint64_t window_evictions = 0;
  std::uint64_t restored_in_flight = 0;  ///< txs re-registered from the WAL
};

class Mempool {
 public:
  Mempool() = default;

  Mempool(const Mempool&) = delete;
  Mempool& operator=(const Mempool&) = delete;

  /// Full admission pipeline: size gate, committed-window dedup,
  /// pending/in-flight dedup, the kMaxPending bound. On
  /// kDuplicatePending from the *same* (client_id, tx_id) — a reconnecting
  /// client resubmitting — the stored origin's session is re-homed to the
  /// new session so the eventual ack follows the client.
  SubmitStatus submit(txpool::Transaction tx, TxOrigin origin);

  /// Drains up to max_txs pending transactions, oldest first (node thread).
  /// Drained txs move to the in-flight set: still deduped, no longer
  /// proposable, origins retained for ack routing.
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

  std::size_t pending() const;
  std::size_t in_flight() const;

  MempoolStats stats() const;

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

  /// mark_committed() with mu_ already held.
  std::optional<TxOrigin> mark_committed_locked(const crypto::Digest& digest);

  mutable std::mutex mu_;
  /// FIFO of pending digests; entries whose digest left `pending_` (e.g.
  /// committed via a foreign block first) are skipped lazily on drain.
  std::deque<crypto::Digest> fifo_;
  std::unordered_map<crypto::Digest, PendingTx, DigestHash> pending_;
  std::unordered_map<crypto::Digest, TxOrigin, DigestHash> in_flight_;
  std::unordered_set<crypto::Digest, DigestHash> committed_;
  std::deque<crypto::Digest> committed_ring_;  ///< eviction order
  MempoolStats stats_;
};

}  // namespace dr::ingress
