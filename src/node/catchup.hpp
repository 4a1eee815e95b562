// Peer catch-up sync (DESIGN.md §10): lets a restarted or lagging node fetch
// DAG vertices it missed while down, instead of waiting for future RBC
// traffic that will never re-send history. Runs entirely on the node thread
// — the kSync handler and tick() are both dispatched from Node::loop — and
// sends nothing unless the node is demonstrably behind.
//
// Trust model: a single peer's response proves nothing (a Byzantine peer can
// fabricate any vertex bytes). A fetched vertex is only fed to the builder
// once f+1 DISTINCT peers returned byte-identical payloads for the same
// (source, round) slot — at least one of them is correct, and a correct peer
// only serves vertices its own RBC r_delivered. The vertex then still passes
// through DagBuilder::sync_deliver's ordinary validation/parent gates, so
// catch-up can delay liveness but never corrupt the DAG.
//
// Request discipline: at most kMaxInflight round-ranges outstanding, each
// covering kRoundsPerRequest rounds and replicated to f+1 distinct peers at
// once (one volley of responses can then complete the byte-match tally —
// essential while the peers' GC floors are advancing through the requested
// rounds), re-sent to the next peers after kRetryAfterUs; per-peer
// exponential backoff keeps a dead or slow peer from absorbing every
// request. The constants live in catchup.cpp.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <unordered_set>
#include <vector>

#include "dag/builder.hpp"
#include "net/bus.hpp"
#include "net/frame.hpp"

namespace dr::node {

/// Monotonic counters, surfaced through node::Node::counters().
struct CatchupStats {
  std::uint64_t requests_sent = 0;
  std::uint64_t responses_received = 0;
  std::uint64_t responses_served = 0;
  std::uint64_t vertices_accepted = 0;   ///< reached f+1 matching copies
  std::uint64_t vertices_mismatched = 0; ///< conflicting payloads for a slot
  std::uint64_t retries = 0;
};

class CatchupSync {
 public:
  /// Subscribes to Channel::kSync on `bus`. `builder` must outlive this.
  CatchupSync(net::Bus& bus, ProcessId pid, dag::DagBuilder& builder);

  /// Drives the requester side; call from the node loop with now_us().
  void tick(std::uint64_t now_us);

  const CatchupStats& stats() const { return stats_; }

 private:
  struct Inflight {
    Round from = 0;
    Round to = 0;  ///< inclusive
    std::uint64_t sent_at_us = 0;
  };
  struct PeerState {
    std::uint64_t backoff_until_us = 0;
    std::uint64_t backoff_us = 0;
  };

  void on_sync_frame(ProcessId from, const net::Payload& payload);
  void serve_request(ProcessId from, const net::VertexRequest& req);
  void ingest_response(ProcessId from, net::VertexResponse& resp);
  /// Drops tally/dedup state for ids the DAG has absorbed or GC retired.
  void prune();
  /// Next peer (round-robin, != pid_) not currently backing off.
  bool choose_peer(std::uint64_t now_us, ProcessId& out);
  void send_request(Round from, Round to, std::uint64_t now_us);

  net::Bus& bus_;
  ProcessId pid_;
  dag::DagBuilder& builder_;
  Committee committee_;

  /// One payload variant for a slot: the bytes (shared, not copied per
  /// response) and the distinct peers that returned exactly these bytes.
  struct Voucher {
    net::Payload payload;
    std::set<ProcessId> peers;
  };

  std::vector<Inflight> inflight_;
  std::vector<PeerState> peers_;
  ProcessId next_peer_ = 0;  ///< round-robin cursor
  /// Response tally: per slot, payload digest -> voucher. Keying by the
  /// memoized SHA-256 digest makes the f+1 byte-match rule O(1) per response
  /// instead of a full byte-wise map compare, under the same
  /// collision-resistance assumption the hash-echo RBC already relies on.
  std::map<dag::VertexId, std::map<crypto::Digest, Voucher>> tally_;
  /// Slots already handed to the builder (sync_deliver is one-shot here).
  std::unordered_set<dag::VertexId, dag::VertexIdHash> accepted_;
  /// The builder's lowest missing parent round at the last tick, and since
  /// when it has been that round (the stalled-parent rule in tick()).
  Round stalled_parent_round_ = 0;
  std::uint64_t stalled_since_us_ = 0;
  CatchupStats stats_;
};

}  // namespace dr::node
