#include "dag/builder.hpp"

#include <algorithm>
#include <unordered_set>

#include "common/assert.hpp"

namespace dr::dag {

DagBuilder::DagBuilder(Committee committee, ProcessId pid,
                       rbc::ReliableBroadcast& rbc, BuilderOptions options,
                       Round rounds_per_wave)
    : committee_(committee),
      pid_(pid),
      rbc_(rbc),
      options_(options),
      rounds_per_wave_(rounds_per_wave),
      dag_(committee),
      buffered_per_source_(committee.n, 0),
      last_round_from_(committee.n, 0) {
  DR_ASSERT(pid < committee.n);
  DR_ASSERT(rounds_per_wave_ >= 1);
  rbc_.set_deliver([this](ProcessId source, Round r, net::Payload payload) {
    on_deliver(source, r, std::move(payload));
  });
}

void DagBuilder::enqueue_block(Bytes block) {
  blocks_to_propose_.push_back(std::move(block));
  if (phase_.live()) pump();  // a block can unblock round advancement
}

void DagBuilder::start() {
  DR_ASSERT_MSG(!phase_.live(), "DagBuilder::start called twice");
  phase_.start();
  if (round_ >= 1 || !restored_proposals_.empty()) {
    // Restarted from a WAL. A proposal at the recovered frontier may already
    // exist (logged pre-crash, re-sent below); remember that before the
    // drain so the frontier-participation step cannot double-propose.
    const bool proposed_at_frontier =
        dag_.contains(VertexId{pid_, round_}) ||
        restored_proposals_.count(round_) > 0;
    // Re-send logged proposals up to the frontier whose vertices never
    // completed their broadcast (crash between log/send and r_deliver).
    // Identical bytes — peers that already delivered them ignore the
    // replay; peers that did not get a second chance to.
    const Round resend_floor = std::max<Round>(1, gc_floor_);
    for (auto it = restored_proposals_.begin();
         it != restored_proposals_.end();) {
      if (it->first > round_) break;  // re-sent when advancement reaches it
      if (it->first >= resend_floor &&
          !dag_.contains(VertexId{pid_, it->first})) {
        rbc_.broadcast(it->first, Bytes(it->second));
        ++stats_.proposals_rebroadcast;
      }
      it = restored_proposals_.erase(it);
    }
    // Frontier participation: finish_restore advanced into round_ on the
    // strength of other processes' quorums without this process proposing
    // there. If the parent quorum is locally present and a block is
    // available, propose now — after a whole-cluster restart someone must
    // re-open the frontier round or every node waits on the others.
    if (round_ >= 1 && !proposed_at_frontier &&
        dag_.round_size(round_ - 1) >= committee_.quorum() &&
        (!blocks_to_propose_.empty() || options_.auto_blocks)) {
      propose(round_);
    }
  }
  pump();
}

void DagBuilder::begin_restore(Round floor) {
  phase_.begin_restore();
  DR_ASSERT_MSG(round_ == 0 && buffer_.empty(),
                "restore must precede all protocol activity");
  if (floor > 0) {
    gc_floor_ = floor;
    dag_.compact_below(floor);
    // Advancement resumes from the floor; finish_restore pushes the counter
    // up through every round the replayed records certify.
    round_ = floor;
  }
}

void DagBuilder::restore_deliver(ProcessId source, Round r, net::Payload payload) {
  DR_REQUIRE(phase_.restoring(),
             "restore_deliver outside begin/finish_restore");
  // Same gates as a live delivery (validate, dedup, parent gating); nothing
  // pumps until finish_restore because the builder is not live yet.
  on_deliver(source, r, std::move(payload));
}

void DagBuilder::restore_own_proposal(Round r, Bytes payload) {
  DR_REQUIRE(phase_.restoring(),
             "restore_own_proposal outside begin/finish_restore");
  if (r < 1) return;
  restored_proposals_[r] = std::move(payload);
}

void DagBuilder::finish_restore() {
  phase_.finish_restore();
  const std::uint64_t before = dag_.vertex_count();
  bool progress = true;
  while (progress) {
    progress = try_insert_buffered();
    // Advance through every round the restored DAG already certifies with a
    // 2f+1 quorum, re-firing wave boundaries so the ordering layer replays
    // its commit decisions deterministically — but broadcast nothing: these
    // rounds' proposals were sent in a previous life or were never ours.
    while (dag_.round_size(round_) >= committee_.quorum()) {
      if (round_ % rounds_per_wave_ == 0 && round_ > 0 && wave_ready_) {
        wave_ready_(round_ / rounds_per_wave_);
      }
      round_ += 1;
      progress = true;
    }
  }
  stats_.restored_vertices += dag_.vertex_count() - before;
}

void DagBuilder::sync_deliver(ProcessId source, Round r, net::Payload payload) {
  ++stats_.sync_deliveries;
  on_deliver(source, r, std::move(payload), /*solicited=*/true);
}

Round DagBuilder::lowest_missing_parent_round() const {
  const Round floor = std::max<Round>(1, gc_floor_);
  Round best = 0;
  const auto consider = [&](Round r) {
    if (r < floor) return;  // GC'd parents are tolerated by Dag::insert
    if (best == 0 || r < best) best = r;
  };
  for (const Vertex& v : buffer_) {
    if (v.round >= 1 && v.round - 1 >= gc_floor_) {
      for (ProcessId p : v.strong_edges) {
        if (!dag_.contains(VertexId{p, v.round - 1})) consider(v.round - 1);
      }
    }
    for (const VertexId& id : v.weak_edges) {
      if (!dag_.contains(id)) consider(id.round);
    }
  }
  return best;
}

bool DagBuilder::validate(const Vertex& v) const {
  if (v.source >= committee_.n || v.round < 1) return false;
  // Alg. 2 line 25: at least 2f+1 strong edges into the previous round.
  if (v.strong_edges.size() < committee_.quorum()) return false;
  std::unordered_set<ProcessId> seen;
  for (ProcessId p : v.strong_edges) {
    if (p >= committee_.n || !seen.insert(p).second) return false;
  }
  std::unordered_set<std::uint64_t> weak_seen;
  for (const VertexId& id : v.weak_edges) {
    // Weak edges target rounds r' with 1 <= r' < round-1 (Alg. 2 line 29).
    if (id.source >= committee_.n || id.round < 1 || id.round + 1 >= v.round) {
      return false;
    }
    const std::uint64_t key =
        (static_cast<std::uint64_t>(id.source) << 40) ^ id.round;
    if (!weak_seen.insert(key).second) return false;
  }
  return true;
}

void DagBuilder::on_deliver(ProcessId source, Round r, net::Payload payload,
                            bool solicited) {
  auto parsed = Vertex::deserialize(payload.view());
  if (!parsed) return;  // malformed Byzantine vertex — drop
  Vertex v = std::move(parsed).value();
  // Source and round come from the reliable broadcast metadata
  // (Alg. 2 lines 23-24); the payload cannot spoof them.
  v.source = source;
  v.round = r;
  // Keep the delivered bytes: storage, catch-up serving, and block-digest
  // windows all reuse this buffer instead of re-serializing (DESIGN.md §11).
  v.wire = std::move(payload);
  if (r < gc_floor_) {  // arrived after its round was collected
    ++stats_.gc_dropped_deliveries;
    return;
  }
  if (!validate(v)) return;
  if (dag_.contains(v.id())) return;  // duplicate (RBC Integrity backstop)
  if (r > highest_seen_round_) highest_seen_round_ = r;
  if (r > last_round_from_[source]) last_round_from_[source] = r;

  // Piggybacked coin share: the vertex opening round 4w+1 may carry its
  // sender's share for wave w (paper footnote 1).
  if (v.has_coin_share && coin_sink_ && v.round % rounds_per_wave_ == 1) {
    const Wave w = (v.round - 1) / rounds_per_wave_;
    if (w >= 1) coin_sink_(source, w, v.coin_share);
  }

  // WAL replay and solicited catch-up vertices bypass the quota: a recovered
  // history can legitimately hold far more than the live skew bound per
  // source, and a lagging node's buffer is already saturated by far-future
  // live traffic — quota-rejecting the very vertices it asked for would
  // wedge catch-up permanently. (Accounting below still runs, so the pump
  // invariant keeps holding; solicited volume is bounded by the sync layer's
  // in-flight window.)
  if (!phase_.restoring() && !solicited &&
      buffered_per_source_[source] >= kBufferQuotaPerSource) {
    ++stats_.quota_rejections;
    return;  // flooding defense: sender parked too many orphan vertices
  }
  buffered_per_source_[source] += 1;
  buffer_.push_back(std::move(v));
  if (phase_.live()) pump();
}

bool DagBuilder::try_insert_buffered() {
  bool inserted_any = false;
  for (std::size_t i = 0; i < buffer_.size();) {
    Vertex& v = buffer_[i];
    if (v.round < gc_floor_) {  // its round was collected while buffered
      ++stats_.gc_dropped_buffered;
      buffered_per_source_[v.source] -= 1;
      buffer_[i] = std::move(buffer_.back());
      buffer_.pop_back();
      continue;
    }
    // Paper processes buffered vertices with v.round <= r (Alg. 2 line 6).
    // Parents in rounds below the GC floor count as satisfied: their slots
    // were freed, and Dag::insert skips them.
    bool ready = v.round <= round_;
    if (ready && v.round - 1 >= gc_floor_) {
      for (ProcessId p : v.strong_edges) {
        if (!dag_.contains(VertexId{p, v.round - 1})) {
          ready = false;
          break;
        }
      }
    }
    if (ready) {
      for (const VertexId& id : v.weak_edges) {
        if (id.round < gc_floor_) continue;  // compacted: satisfied
        if (!dag_.contains(id)) {
          ready = false;
          break;
        }
      }
    }
    if (!ready) {
      ++i;
      continue;
    }
    if (dag_.contains(v.id())) {  // duplicate raced into the DAG
      buffered_per_source_[v.source] -= 1;
      buffer_[i] = std::move(buffer_.back());
      buffer_.pop_back();
      continue;
    }
    Vertex taken = std::move(v);
    buffered_per_source_[taken.source] -= 1;
    buffer_[i] = std::move(buffer_.back());
    buffer_.pop_back();
    const VertexId id = taken.id();
    dag_.insert(std::move(taken));
    if (vertex_added_) vertex_added_(*dag_.get(id));
    inserted_any = true;
    // Restart the scan: the insert may unblock earlier-scanned vertices.
    i = 0;
  }
  return inserted_any;
}

bool DagBuilder::should_skip_proposal(Round next) const {
  if (options_.lag_skip_threshold == 0) return false;
  for (Round k = 0; k < options_.lag_skip_threshold; ++k) {
    if (dag_.round_size(next + k) < committee_.quorum()) return false;
  }
  return true;
}

bool DagBuilder::can_advance() const {
  if (dag_.round_size(round_) < committee_.quorum()) return false;
  // Advancing into a skipped round or a restored proposal needs no block.
  if (should_skip_proposal(round_ + 1)) return true;
  if (restored_proposals_.count(round_ + 1) > 0) return true;
  // create_new_vertex waits for a block (Alg. 2 line 17); auto_blocks
  // realizes the "infinitely many blocks" assumption.
  return !blocks_to_propose_.empty() || options_.auto_blocks;
}

void DagBuilder::pump() {
  if (pumping_) return;  // guard against reentrancy via callbacks
  pumping_ = true;
  bool progress = true;
  while (progress) {
    progress = try_insert_buffered();
    while (can_advance()) {
      advance_round();
      progress = true;
    }
  }
  pumping_ = false;
#if DR_CONTRACTS_ENABLED
  // Flooding-defense accounting: the per-source quota counters must agree
  // with the buffer's contents, or the quota either leaks (source starves
  // forever) or stops bounding memory (Byzantine flooding wins).
  std::size_t accounted = 0;
  for (std::size_t per_source : buffered_per_source_) accounted += per_source;
  DR_INVARIANT(accounted == buffer_.size(),
               "buffer quota accounting diverged from buffer contents");
#endif
}

void DagBuilder::advance_round() {
  if (round_ % rounds_per_wave_ == 0 && round_ > 0 && wave_ready_) {
    wave_ready_(round_ / rounds_per_wave_);  // Alg. 2 line 12
  }
  // Round ordering (Alg. 2 lines 8-10): a correct process broadcasts exactly
  // one vertex per round and only after seeing 2f+1 vertices in the current
  // round; skipping ahead would broadcast a vertex whose strong edges cannot
  // reference a full quorum of round_-1 vertices.
  DR_REQUIRE(dag_.round_size(round_) >= committee_.quorum(),
             "round advanced without a 2f+1 quorum in the current round");
  round_ += 1;
  if (should_skip_proposal(round_)) {
    // This round's quorum (and its successor's) already closed without us:
    // our vertex could never be strongly referenced. Catch up instead.
    ++stats_.rounds_skipped;
    return;
  }
  propose(round_);
}

void DagBuilder::propose(Round r) {
  if (auto it = restored_proposals_.find(r); it != restored_proposals_.end()) {
    // This round was proposed in a previous life: re-send the logged bytes
    // verbatim. Creating a fresh vertex here would put two different
    // vertices into one (source, round) slot — equivocation.
    Bytes payload = std::move(it->second);
    restored_proposals_.erase(it);
    ++stats_.proposals_rebroadcast;
    rbc_.broadcast(r, std::move(payload));
    return;
  }
  Vertex v = create_new_vertex(r);
  DR_ENSURE(v.strong_edges.size() >= committee_.quorum() && v.round == r &&
                v.source == pid_,
            "own vertex must reference a full strong-edge quorum (Alg. 2 "
            "line 19)");
  const net::Payload payload(v.serialize());
  // Persist-before-send: once these bytes can reach any peer, they are on
  // disk — a restart can only ever re-send them, never contradict them.
  if (proposal_log_) proposal_log_(r, payload.view());
  rbc_.broadcast(r, payload);
}

Vertex DagBuilder::create_new_vertex(Round r) {
  Vertex v;
  v.round = r;
  v.source = pid_;
  if (!blocks_to_propose_.empty()) {
    v.block = std::move(blocks_to_propose_.front());
    blocks_to_propose_.pop_front();
  } else {
    DR_ASSERT(options_.auto_blocks);
    v.block.assign(options_.auto_block_size, 0xAB);
  }
  v.strong_edges = dag_.round_sources(r - 1);  // Alg. 2 line 19
  // Alg. 2 lines 27-31: a weak edge to every older vertex not yet reachable.
  if (options_.weak_edges) v.weak_edges = dag_.weak_edge_targets(r);
  if (coin_provider_ && r % rounds_per_wave_ == 1) {
    const Wave w = (r - 1) / rounds_per_wave_;
    if (w >= 1) {
      v.coin_share = coin_provider_(w);
      v.has_coin_share = true;
    }
  }
  return v;
}

void DagBuilder::apply_gc_floor(Round floor) {
  // Laggard-aware holdback: never collect rounds the slowest recently-heard
  // peer may still fetch over catch-up sync, up to kMaxGcHoldbackRounds of
  // history. Without this a depth-based floor outruns a restarted straggler
  // — by the time it asks for its missing parents every peer has already
  // freed them, and the straggler can never rejoin (DESIGN.md §10).
  if (gc_floor_cap_ < floor) {
    const Round hold_limit =
        floor > kMaxGcHoldbackRounds ? floor - kMaxGcHoldbackRounds : 0;
    const Round held = std::max(gc_floor_cap_, hold_limit);
    if (held < floor) ++stats_.gc_floor_holds;
    floor = held;
  }
  if (floor <= gc_floor_) return;
  gc_floor_ = floor;
  dag_.compact_below(floor);
  // Buffered vertices below the floor are dropped lazily on the next pump;
  // force one now so memory is released promptly.
  if (phase_.live()) pump();
}

}  // namespace dr::dag
