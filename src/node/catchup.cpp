#include "node/catchup.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dr::node {

using dag::VertexId;

namespace {

/// Maximum round-ranges outstanding at once.
constexpr std::size_t kMaxInflight = 4;
/// Rounds per VertexRequest.
constexpr Round kRoundsPerRequest = 8;
/// Re-issue an unanswered request (to a different peer) after this long.
constexpr std::uint64_t kRetryAfterUs = 200'000;
/// Per-peer exponential backoff after an unanswered request.
constexpr std::uint64_t kBackoffInitialUs = 100'000;
constexpr std::uint64_t kBackoffMaxUs = 2'000'000;
/// Server-side caps per response.
constexpr std::size_t kMaxResponseVertices = 64;
constexpr std::size_t kMaxResponseBytes = 1u << 20;
/// Only sync when the observed frontier is at least this many rounds ahead
/// of the local round — ordinary delivery skew is not lag.
constexpr Round kMinLag = 2;

// The wire codec rejects anything wider or fuller than these.
static_assert(kRoundsPerRequest >= 1 &&
              kRoundsPerRequest <= net::kMaxSyncRoundSpan);
static_assert(kMaxResponseVertices <= net::kMaxSyncVertices);

}  // namespace

CatchupSync::CatchupSync(net::Bus& bus, ProcessId pid,
                         dag::DagBuilder& builder)
    : bus_(bus),
      pid_(pid),
      builder_(builder),
      committee_(bus.committee()),
      peers_(committee_.n) {
  bus_.subscribe(pid_, net::Channel::kSync,
                 [this](ProcessId from, const net::Payload& payload) {
                   on_sync_frame(from, payload);
                 });
}

void CatchupSync::on_sync_frame(ProcessId from, const net::Payload& payload) {
  if (from == pid_) return;  // self-sync is meaningless
  auto decoded = net::decode_sync_message(payload.view(), committee_.n);
  if (!decoded.ok()) return;  // malformed — drop, the codec validated shape
  net::SyncMessage msg = std::move(decoded).value();
  if (msg.request.has_value()) {
    serve_request(from, *msg.request);
  } else if (msg.response.has_value()) {
    ingest_response(from, *msg.response);
  }
}

void CatchupSync::serve_request(ProcessId from, const net::VertexRequest& req) {
  const dag::Dag& dag = builder_.dag();
  // Clamp to what this process can actually serve: nothing below its own GC
  // floor (those slots are freed) or round 1, nothing above its max round.
  const Round lo =
      std::max({req.from_round, builder_.gc_floor(), Round{1}});
  const Round hi = std::min(req.to_round, dag.max_round());
  net::VertexResponse resp;
  resp.from_round = req.from_round;
  resp.to_round = req.to_round;
  std::size_t bytes = 0;
  for (Round r = lo; r <= hi && resp.vertices.size() < kMaxResponseVertices;
       ++r) {
    for (ProcessId src : dag.round_sources(r)) {
      if (resp.vertices.size() >= kMaxResponseVertices) break;
      const dag::Vertex* v = dag.get(VertexId{src, r});
      DR_ASSERT(v != nullptr);
      net::SyncVertex sv;
      sv.source = src;
      sv.round = r;
      // Deterministic bytes: the codec is bijective, so the retained wire
      // buffer (or a re-serialization, for restored vertices) yields the
      // identical bytes on every correct peer — which is what makes the
      // requester's f+1 byte-match rule meaningful.
      sv.payload = v->wire_payload().to_bytes();
      bytes += sv.payload.size();
      if (bytes > kMaxResponseBytes) break;
      resp.vertices.push_back(std::move(sv));
    }
    if (bytes > kMaxResponseBytes) break;
  }
  ++stats_.responses_served;
  // Reply even when empty: the requester learns this peer holds nothing in
  // the range and rotates elsewhere instead of waiting out the retry timer.
  bus_.send(pid_, from, net::Channel::kSync, encode_vertex_response(resp));
}

void CatchupSync::ingest_response(ProcessId from, net::VertexResponse& resp) {
  ++stats_.responses_received;
  // A response — any response — clears the peer's backoff: it is alive.
  peers_[from].backoff_until_us = 0;
  peers_[from].backoff_us = 0;

  const dag::Dag& dag = builder_.dag();
  for (net::SyncVertex& sv : resp.vertices) {
    const VertexId id{sv.source, sv.round};
    if (sv.round < std::max<Round>(1, builder_.gc_floor())) continue;
    if (accepted_.count(id) > 0 || dag.contains(id)) continue;
    net::Payload payload(std::move(sv.payload));
    const crypto::Digest digest = payload.digest();
    auto& variants = tally_[id];
    if (!variants.empty() && variants.count(digest) == 0) {
      ++stats_.vertices_mismatched;  // conflicting bytes for one slot
    }
    Voucher& voucher = variants[digest];
    if (voucher.peers.empty()) voucher.payload = std::move(payload);
    voucher.peers.insert(from);
    // f+1 distinct peers with identical bytes: at least one is correct.
    if (voucher.peers.size() >= committee_.small_quorum()) {
      ++stats_.vertices_accepted;
      accepted_.insert(id);
      net::Payload vouched = std::move(voucher.payload);
      tally_.erase(id);
      builder_.sync_deliver(id.source, id.round, std::move(vouched));
    }
  }
}

bool CatchupSync::choose_peer(std::uint64_t now_us, ProcessId& out) {
  for (std::uint32_t step = 0; step < committee_.n; ++step) {
    const ProcessId cand = static_cast<ProcessId>(
        (next_peer_ + step) % committee_.n);
    if (cand == pid_) continue;
    if (peers_[cand].backoff_until_us > now_us) continue;
    out = cand;
    next_peer_ = static_cast<ProcessId>((cand + 1) % committee_.n);
    return true;
  }
  return false;
}

void CatchupSync::send_request(Round from, Round to, std::uint64_t now_us) {
  // Replicate the range to f+1 distinct peers at once. The acceptance rule
  // needs small_quorum() byte-identical vouchers per slot, so a serial
  // one-peer-then-retry scheme only completes a tally after a full
  // kRetryAfterUs — long enough for the peers' GC floors to overtake the
  // requested rounds and leave the tally stuck at one voucher forever.
  // Charging
  // each replica its backoff up front (an answer clears it) still rotates
  // retries away from crashed peers instead of hammering them.
  // One encoded request, shared by every replica send below.
  const net::Payload frame(encode_vertex_request(net::VertexRequest{from, to}));
  std::uint32_t sent = 0;
  for (std::uint32_t k = 0; k < committee_.small_quorum(); ++k) {
    ProcessId peer = 0;
    if (!choose_peer(now_us, peer)) break;  // everyone is backing off
    PeerState& ps = peers_[peer];
    ps.backoff_us = ps.backoff_us == 0
                        ? kBackoffInitialUs
                        : std::min(ps.backoff_us * 2, kBackoffMaxUs);
    ps.backoff_until_us = now_us + ps.backoff_us;
    ++stats_.requests_sent;
    bus_.send(pid_, peer, net::Channel::kSync, frame);
    ++sent;
  }
  if (sent != 0) inflight_.push_back(Inflight{from, to, now_us});
}

void CatchupSync::tick(std::uint64_t now_us) {
  const Round local = builder_.current_round();
  const Round frontier = builder_.highest_seen_round();
  // A buffered vertex can be waiting on a parent BELOW the current round:
  // after a restart a round may hold only the 2f+1 vertices that advanced
  // it, and a later vertex's strong or weak edge to one of the absent slots
  // blocks insertion forever unless requests reach below `local`. A parent
  // missing AT (or above) the local round is usually still in flight, but
  // when the frontier is only one round ahead nothing else asks for it:
  // request it once the same gap has lasted kRetryAfterUs.
  const Round missing = builder_.lowest_missing_parent_round();
  if (missing != stalled_parent_round_) {
    stalled_parent_round_ = missing;
    stalled_since_us_ = now_us;
  }
  const bool parent_gap =
      missing != 0 &&
      (missing < local || now_us - stalled_since_us_ >= kRetryAfterUs);
  if (!parent_gap && frontier < local + kMinLag) {
    // Caught up (or nearly): drop request state; accepted_ only has to
    // bridge the window until the DAG absorbs each id (pruned below).
    inflight_.clear();
    if (!tally_.empty()) tally_.clear();
    prune();
    return;
  }

  // Everything from need_from upward may still be required; ranges entirely
  // below it have been satisfied (insertion consumed their vertices). A
  // parent missing above the local round does not excuse the rounds from
  // local up to it: the builder still needs their quorums to advance, and
  // no live traffic re-sends them.
  const Round need_from =
      std::max<Round>(1, parent_gap ? std::min(missing, local) : local);

  // Retire ranges the builder no longer needs, retry stale ones.
  for (std::size_t i = 0; i < inflight_.size();) {
    Inflight& rq = inflight_[i];
    if (rq.to < need_from) {
      inflight_[i] = inflight_.back();
      inflight_.pop_back();
      continue;
    }
    if (now_us - rq.sent_at_us >= kRetryAfterUs) {
      ++stats_.retries;
      const Round from = rq.from;
      const Round to = rq.to;
      inflight_[i] = inflight_.back();
      inflight_.pop_back();
      send_request(from, to, now_us);  // rotates to the next eligible peer
      continue;
    }
    ++i;
  }

  // Issue new requests, lowest missing rounds first: parents must arrive
  // before children can leave the builder's buffer.
  const Round limit = std::max(frontier, local);
  Round cursor = need_from;
  while (inflight_.size() < kMaxInflight && cursor <= limit) {
    const Round to =
        std::min<Round>(cursor + kRoundsPerRequest - 1, limit);
    bool covered = false;
    for (const Inflight& rq : inflight_) {
      if (rq.from <= cursor && cursor <= rq.to) {
        cursor = rq.to + 1;
        covered = true;
        break;
      }
    }
    if (covered) continue;
    const std::size_t before = inflight_.size();
    send_request(cursor, to, now_us);
    if (inflight_.size() == before) break;  // no eligible peer right now
    cursor = to + 1;
  }

  prune();
}

void CatchupSync::prune() {
  // Drop tallies the DAG has since absorbed through ordinary delivery, and
  // accepted ids the DAG now holds (or that GC retired): accepted_ only has
  // to bridge the window between sync_deliver and DAG insertion, after which
  // dag.contains() takes over as the dedup — so the set stays small even
  // across a very long catch-up.
  for (auto it = tally_.begin(); it != tally_.end();) {
    if (builder_.dag().contains(it->first) ||
        it->first.round < builder_.gc_floor()) {
      it = tally_.erase(it);
    } else {
      ++it;
    }
  }
  for (auto it = accepted_.begin(); it != accepted_.end();) {
    if (builder_.dag().contains(*it) || it->round < builder_.gc_floor()) {
      it = accepted_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace dr::node
