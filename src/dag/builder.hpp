// DAG construction — Algorithm 2. Consumes r_deliver events from a reliable
// broadcast, gates vertices in a buffer until their causal history is
// complete, advances rounds at 2f+1 vertices, and reliably broadcasts this
// process's own vertex per round with strong + weak edges.
//
// Durability extension (DESIGN.md §10): the builder can be rebuilt from a
// write-ahead log before start() — begin_restore / restore_deliver /
// restore_own_proposal / finish_restore replay a logged history through the
// exact same validation and insertion gates as live delivery, re-firing
// wave_ready at every boundary so the ordering layer deterministically
// replays its commits, and resuming the round counter where the quorums
// certify instead of at round 1. sync_deliver feeds vertices fetched from
// peers by the catch-up protocol (node/catchup.hpp) through the same gates.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "core/contract.hpp"
#include "dag/dag.hpp"
#include "rbc/rbc.hpp"

namespace dr::dag {

struct BuilderOptions {
  /// If true, an empty blocksToPropose queue never stalls round advancement:
  /// a synthetic block of `auto_block_size` bytes is proposed instead. This
  /// realizes the paper's "each process atomically broadcasts infinitely
  /// many blocks" assumption without an explicit client loop.
  bool auto_blocks = false;
  std::size_t auto_block_size = 0;
  /// If false, no weak edges are emitted — an ablation that knocks out the
  /// Validity property (tests Builder.AblationNoWeakEdgesProducesNone and
  /// DagRiderAblation.NoWeakEdgesStarvesSlowProcess).
  bool weak_edges = true;
  /// When > 0: at advancement time, if the local DAG already holds a 2f+1
  /// quorum in each of the next `lag_skip_threshold` rounds, this process is
  /// clearly behind the cluster frontier and advances WITHOUT creating and
  /// broadcasting its own vertex — a vertex for a round whose quorum (and
  /// successor's quorum) already closed can never be strongly referenced, so
  /// broadcasting it only burns bandwidth and delays catch-up. Skipped
  /// rounds consume no queued block. 0 disables (the paper's behaviour,
  /// kept for the simulator; the node runtime enables it so a restarted or
  /// lagging node sprints to the frontier).
  Round lag_skip_threshold = 0;
};

/// Monotonic builder counters, surfaced through node::Node::counters().
struct BuilderStats {
  /// r_deliveries dropped because their round was already GC-collected.
  std::uint64_t gc_dropped_deliveries = 0;
  /// Buffered vertices dropped when the GC floor rose past their round.
  std::uint64_t gc_dropped_buffered = 0;
  /// Deliveries rejected by the per-source buffer quota.
  std::uint64_t quota_rejections = 0;
  /// Vertices fed by the catch-up sync path (attempted, pre-validation).
  std::uint64_t sync_deliveries = 0;
  /// Rounds advanced without an own proposal (lag_skip_threshold).
  std::uint64_t rounds_skipped = 0;
  /// Logged proposals re-broadcast after a restart (identical bytes).
  std::uint64_t proposals_rebroadcast = 0;
  /// Vertices re-inserted into the DAG by WAL replay.
  std::uint64_t restored_vertices = 0;
  /// apply_gc_floor calls clamped by the laggard-aware floor cap.
  std::uint64_t gc_floor_holds = 0;
};

/// set_gc_floor_cap value meaning "no peer constrains the floor".
inline constexpr Round kNoGcFloorCap = ~Round{0};
/// Maximum buffered (not-yet-insertable) vertices per source. A Byzantine
/// process can reference never-delivered parents to park garbage in the
/// buffer forever; the quota bounds that to O(n * quota) memory. A correct
/// process can legitimately run ahead by the delivery skew, so this must
/// comfortably exceed the expected round lead.
inline constexpr std::size_t kBufferQuotaPerSource = 128;
/// Upper bound on how far the laggard-aware GC cap (set_gc_floor_cap) may
/// hold the floor below its depth-based target. Bounds the history a dead
/// or Byzantine straggler can pin in memory to O(n * holdback) vertices.
inline constexpr Round kMaxGcHoldbackRounds = 16384;

class DagBuilder {
 public:
  /// wave_ready(w) — the Alg. 2 line 12 signal into the ordering layer.
  using WaveReadyFn = std::function<void(Wave)>;
  /// Observer invoked after a vertex is added to the local DAG.
  using VertexAddedFn = std::function<void(const Vertex&)>;
  /// Persistence hook invoked with this process's own (round, serialized
  /// vertex) BEFORE rbc_.broadcast — logging the proposal first is what
  /// makes a restart re-send identical bytes instead of equivocating.
  using ProposalLogFn = std::function<void(Round, BytesView)>;
  /// Piggybacked-coin hooks (footnote 1): provider returns this process's
  /// share for wave w when its round-(4w+1) vertex is created; sink receives
  /// shares found on delivered vertices.
  using CoinShareProviderFn = std::function<std::uint64_t(Wave)>;
  using CoinShareSinkFn = std::function<void(ProcessId, Wave, std::uint64_t)>;

  /// `rounds_per_wave` is the ordering personality's wave geometry
  /// (core::ordering_rounds_per_wave); the builder fires wave_ready at its
  /// multiples.
  DagBuilder(Committee committee, ProcessId pid, rbc::ReliableBroadcast& rbc,
             BuilderOptions options = {},
             Round rounds_per_wave = kRoundsPerWave);

  void set_wave_ready(WaveReadyFn fn) { wave_ready_ = std::move(fn); }
  void set_vertex_added(VertexAddedFn fn) { vertex_added_ = std::move(fn); }
  void set_proposal_log(ProposalLogFn fn) { proposal_log_ = std::move(fn); }
  void enable_coin_piggyback(CoinShareProviderFn provider, CoinShareSinkFn sink) {
    coin_provider_ = std::move(provider);
    coin_sink_ = std::move(sink);
  }

  /// blocksToPropose.enqueue(b) (Alg. 3 line 33 pushes through this).
  void enqueue_block(Bytes block);
  std::size_t blocks_pending() const { return blocks_to_propose_.size(); }

  /// Starts the protocol: performs the initial advance out of round 0 (or,
  /// after a restore, re-broadcasts still-pending logged proposals and
  /// proposes at the recovered frontier). Call once after wiring.
  void start();

  /// --- WAL restore (all before start(); see the header comment). ---
  /// Enters restore mode. `floor` is the snapshot's GC floor: the DAG is
  /// compacted to it and the round counter resumes there (0 = full replay).
  void begin_restore(Round floor);
  /// Replays one logged r_delivery through the ordinary validation gates.
  void restore_deliver(ProcessId source, Round r, net::Payload payload);
  /// Registers one logged own proposal; it is re-broadcast verbatim at
  /// start() or when advancement re-reaches its round, never recreated.
  void restore_own_proposal(Round r, Bytes payload);
  /// Inserts everything insertable and advances the round counter through
  /// every round the restored DAG certifies with a 2f+1 quorum, re-firing
  /// wave_ready at each boundary — without broadcasting anything.
  void finish_restore();

  /// Catch-up path: a vertex fetched from f+1 agreeing peers rather than
  /// r_delivered by the RBC. Validated, deduplicated, parent-gated, and
  /// quota-bounded exactly like a live delivery.
  void sync_deliver(ProcessId source, Round r, net::Payload payload);

  const Dag& dag() const { return dag_; }
  ProcessId pid() const { return pid_; }
  Round current_round() const { return round_; }
  /// Highest round any validated delivery has mentioned — the catch-up
  /// protocol's estimate of the cluster frontier.
  Round highest_seen_round() const { return highest_seen_round_; }
  std::size_t buffer_size() const { return buffer_.size(); }
  /// Lowest round holding a parent (strong or weak) that a buffered vertex
  /// references but the DAG does not contain, or 0 when nothing is missing.
  /// This is what catch-up sync uses to aim requests BELOW the current
  /// round: after a restart a round may hold only the 2f+1 vertices that
  /// advanced it, and a later vertex's edge to one of the absent ones would
  /// otherwise block insertion forever.
  Round lowest_missing_parent_round() const;
  /// Deliveries rejected because the sender exceeded its buffer quota.
  std::uint64_t quota_rejections() const { return stats_.quota_rejections; }
  const BuilderStats& stats() const { return stats_; }
  Round rounds_per_wave() const { return rounds_per_wave_; }

  /// Structural validation of a delivered vertex (Alg. 2 line 25 plus
  /// hygiene). Exposed for tests and for Byzantine-input fuzzing.
  bool validate(const Vertex& v) const;

  /// Raises the retention floor (driven by the ordering layer after
  /// delivery, with its ordering floor): rounds below `floor` are compacted
  /// in the DAG, buffered vertices for them are dropped, and deliveries for
  /// them are rejected. Monotonic; see Dag::compact_below for the semantics.
  /// The requested floor is first clamped by the laggard-aware cap below,
  /// so gc_floor() never exceeds the ordering floor that requested it.
  void apply_gc_floor(Round floor);
  /// Retention floor: what memory holds and catch-up can serve. Delivery
  /// never reads it (core::OrderingRule owns the ordering floor).
  Round gc_floor() const { return gc_floor_; }

  /// Laggard-aware GC holdback (DESIGN.md §10): the node layer lowers this
  /// cap to just below the round of the slowest peer it has recently heard
  /// from, so retention never drops history that a live-but-lagging peer
  /// could still fetch over catch-up sync — without it, a depth-based floor
  /// outruns a restarted straggler and makes its recovery impossible. The
  /// cap only keeps memory; what a_deliver skips is still the ordering
  /// floor. kNoGcFloorCap (the default) disables the clamp; the clamp is in
  /// turn bounded by kMaxGcHoldbackRounds so a dead peer cannot pin memory.
  void set_gc_floor_cap(Round cap) { gc_floor_cap_ = cap; }
  /// Highest round of any validated delivery from `source` (live, restore,
  /// or sync) — the node layer's per-peer progress estimate for the cap.
  Round highest_round_from(ProcessId source) const {
    return last_round_from_[source];
  }

 private:
  /// `solicited` marks vertices this process explicitly requested (catch-up
  /// sync): those bypass the per-source flooding quota, because their volume
  /// is already bounded by the requester's in-flight window and dropping one
  /// would lose it permanently (the sync layer de-duplicates accepted ids).
  void on_deliver(ProcessId source, Round r, net::Payload payload,
                  bool solicited = false);
  /// Drains the buffer and advances rounds until quiescent (Alg. 2 loop).
  void pump();
  [[nodiscard]] bool try_insert_buffered();
  bool can_advance() const;
  void advance_round();
  /// True when rounds next..next+threshold-1 all already hold a quorum.
  bool should_skip_proposal(Round next) const;
  /// Creates (or, post-restore, replays) and broadcasts the round-r vertex.
  void propose(Round r);
  Vertex create_new_vertex(Round r);

  Committee committee_;
  ProcessId pid_;
  rbc::ReliableBroadcast& rbc_;
  BuilderOptions options_;
  Round rounds_per_wave_;
  Dag dag_;
  Round round_ = 0;
  Round highest_seen_round_ = 0;
  std::vector<Vertex> buffer_;
  std::deque<Bytes> blocks_to_propose_;
  WaveReadyFn wave_ready_;
  VertexAddedFn vertex_added_;
  ProposalLogFn proposal_log_;
  CoinShareProviderFn coin_provider_;
  CoinShareSinkFn coin_sink_;
  /// Own proposals recovered from the WAL, keyed by round; drained as they
  /// are re-broadcast (start()) or re-reached (propose()).
  std::map<Round, Bytes> restored_proposals_;
  contract::RestorePhase phase_;
  bool pumping_ = false;
  Round gc_floor_ = 0;
  Round gc_floor_cap_ = kNoGcFloorCap;
  std::vector<std::size_t> buffered_per_source_;
  /// Highest validated delivery round per source (feeds highest_round_from).
  std::vector<Round> last_round_from_;
  BuilderStats stats_;
};

}  // namespace dr::dag
