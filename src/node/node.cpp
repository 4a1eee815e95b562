#include "node/node.hpp"

#include <unordered_set>

#include "crypto/sha256.hpp"

namespace dr::node {

namespace {

/// Builder setup of every runtime node. auto_blocks keeps rounds advancing
/// when the mempool runs dry (the paper's "infinitely many blocks"
/// assumption) with 0-byte filler blocks; lag_skip_threshold lets a node that
/// restarted far behind sprint to the frontier instead of proposing into
/// already-closed rounds.
constexpr dag::BuilderOptions kBuilderOptions{
    .auto_blocks = true, .auto_block_size = 0, .lag_skip_threshold = 2};
/// Transactions drained from the mempool into one proposed block.
constexpr std::size_t kBlockMaxTxs = 256;
/// Proposed-block backlog above which the loop stops draining the mempool
/// (blocks park in the builder queue; leaving them in the mempool instead
/// keeps them eligible for duplicate suppression).
constexpr std::size_t kMaxBlocksPending = 2;
/// Event-loop sleep cap when the inbox is empty.
constexpr std::chrono::milliseconds kIdleWait{1};
/// Laggard-aware GC holdback: a peer heard from within this window pins the
/// builder's retention floor to just below its highest delivered round,
/// keeping the history it may still catch-up-fetch servable. A peer silent
/// for longer stops constraining retention.
constexpr std::uint64_t kPeerLivenessUs = 2'000'000;

}  // namespace

Node::Node(std::unique_ptr<net::Transport> transport,
           const coin::CoinDealer& dealer, NodeOptions opts)
    : opts_(opts),
      transport_(std::move(transport)),
      bus_(*transport_),
      epoch_(std::chrono::steady_clock::now()) {
  DR_ASSERT_MSG(opts_.fault == core::FaultKind::kNone ||
                    core::stack_plays(opts_.fault),
                "the runtime plays only mute, equivocate and selective");
  const ProcessId my_pid = transport_->pid();
  auto deliver = [this](const Bytes& block, const crypto::Digest& block_digest,
                        Round r, ProcessId src) {
    const std::uint64_t t = now_us();
    {
      std::lock_guard<std::mutex> lk(log_mu_);
      delivered_.push_back(
          core::DeliveredRecord{block_digest, block.size(), r, src, t});
    }
    delivered_count_.fetch_add(1, std::memory_order_release);
    // Commit path of the ingress tier (DESIGN.md §13): every delivered tx
    // enters the recently-committed dedup window, and the ones whose
    // submitting session lives on this node get their ack routed back.
    for (const ingress::CommittedTx& c : mempool_.commit_block(block)) {
      if (c.origin && ingress_) ingress_->complete(*c.origin);
    }
    if (app_deliver_) app_deliver_(block, r, src, t);
  };
  auto on_commit = [this](Wave w, dag::VertexId leader, bool direct) {
    std::lock_guard<std::mutex> lk(log_mu_);
    commits_.push_back(core::CommitRecord{w, leader, direct, now_us()});
  };
  stack_ = std::make_unique<core::ProcessStack>(
      bus_, my_pid,
      core::StackOptions{.rbc_kind = rbc::RbcKind::kBracha,
                         .fault = opts_.fault,
                         .coin_mode = core::CoinMode::kPiggyback,
                         .ordering = opts_.ordering,
                         .bullshark = {},
                         .builder = kBuilderOptions,
                         .gc_depth_rounds = opts_.gc_depth_rounds,
                         .seed = opts_.seed},
      &dealer, std::move(deliver), std::move(on_commit));
  builder_ = &stack_->builder();
  rider_ = &stack_->rider();

  if (!opts_.wal_dir.empty()) {
    store_ = std::make_unique<storage::VertexStore>(
        committee(), my_pid,
        storage::StoreOptions{opts_.wal_dir, opts_.wal_fsync});
  }
  catchup_ = std::make_unique<CatchupSync>(bus_, my_pid, *builder_);
  last_heard_us_.assign(committee().n, 0);
  if (opts_.ingress_enable) {
    ingress_ = std::make_unique<ingress::IngressServer>(mempool_,
                                                        opts_.ingress);
  }
}

Node::~Node() { stop(); }

void Node::start() {
  DR_ASSERT_MSG(!running_.load() && !loop_stopped_, "Node::start is one-shot");
  running_.store(true, std::memory_order_release);
  transport_->start_batched([this](std::vector<net::Frame>& frames) {
    // Self batches are unbounded: the consumer of this inbox is the thread
    // that produced them, and it must never block on itself.
    inbox_.push_batch(frames, frames.front().from != pid());
  });
  thread_ = std::thread([this] { loop(); });
  if (ingress_) {
    DR_ASSERT_MSG(ingress_->start(), "ingress listener failed to bind");
  }
}

void Node::loop() {
  if (store_) {
    recover_from_store();
    // Persistence hooks go in AFTER replay: replayed vertices are already in
    // the WAL, and re-appending them would double the file every restart.
    builder_->set_vertex_added(
        [this](const dag::Vertex& v) { store_->append_vertex(v); });
    builder_->set_proposal_log(
        [this](Round r, BytesView payload) {
          store_->append_proposal(r, payload);
          proposals_logged_.fetch_add(1, std::memory_order_relaxed);
        });
  }
  builder_->start();
  // Frames the handlers emit wait in the bus's outbox until the flush that
  // ends each pass, which goes before pop_all can block.
  bus_.flush();
  std::vector<net::Frame> batch;
  while (running_.load(std::memory_order_acquire)) {
    batch.clear();
    (void)inbox_.pop_all(batch, kIdleWait);  // batch itself is the result
    const std::uint64_t now = now_us();
    for (const net::Frame& f : batch) {
      last_heard_us_[f.from] = now;
      bus_.dispatch(f);
    }
    refresh_gc_floor_cap(now);
    catchup_->tick(now_us());
    if (store_) maybe_compact();
    refill_from_mempool();
    bus_.flush();
  }
}

void Node::refresh_gc_floor_cap(std::uint64_t now) {
  // Laggard-aware GC holdback (DESIGN.md §10): clamp the builder's GC floor
  // to just below the round of the slowest peer heard from recently, so the
  // history a live straggler still needs stays servable over catch-up sync.
  // The margin covers the straggler's own parent gap (strong edges reach one
  // round back, weak edges a few waves); a peer silent past the liveness
  // window stops constraining, and DagBuilder::apply_gc_floor bounds the
  // total holdback so a dead peer cannot pin memory forever.
  if (opts_.gc_depth_rounds == 0) return;
  // Every loop iteration: the scan is O(n) over counters already in cache,
  // and a stale cap lags the frontier by however long it goes unrefreshed,
  // eating into the margin below.
  const Round margin = opts_.gc_depth_rounds / 2 + 1;
  Round cap = dag::kNoGcFloorCap;
  for (ProcessId p = 0; p < committee().n; ++p) {
    if (p == pid()) continue;
    if (last_heard_us_[p] + kPeerLivenessUs < now) continue;
    const Round r = builder_->highest_round_from(p);
    cap = std::min(cap, r > margin ? r - margin : Round{0});
  }
  builder_->set_gc_floor_cap(cap);
}

void Node::recover_from_store() {
  storage::RecoverResult rec = store_->recover();
  Round floor = 0;
  if (rec.snapshot.has_value()) {
    const storage::Snapshot& snap = *rec.snapshot;
    // Wave numbering and the commit rule differ between personalities; a
    // log written under one must not seed the other (DESIGN.md §14).
    DR_ASSERT_MSG(
        snap.ordering == static_cast<std::uint8_t>(opts_.ordering) &&
            snap.rounds_per_wave == builder_->rounds_per_wave(),
                  "snapshot written under a different ordering personality");
    floor = snap.gc_floor;
    // The rider drops ids below its own ordering floor, which it re-derives
    // from the decided wave; the builder's retention floor may sit lower.
    std::vector<dag::VertexId> delivered_ids;
    delivered_ids.reserve(snap.delivered.size());
    for (const core::DeliveredRecord& d : snap.delivered) {
      delivered_ids.push_back(dag::VertexId{d.source, d.round});
    }
    {
      std::lock_guard<std::mutex> lk(log_mu_);
      delivered_ = snap.delivered;
      commits_ = snap.commits;
    }
    delivered_count_.store(snap.delivered.size(), std::memory_order_release);
    rider_->restore(snap.decided_wave, snap.delivered.size(), delivered_ids);
  }
  if (!rec.snapshot.has_value() && rec.records.empty()) return;  // fresh

  // At-least-once seam (ROADMAP item 1): a restored own proposal may carry
  // client txs that were never a_delivered before the crash. Re-register
  // them as in-flight BEFORE replay, so a client resubmitting after our
  // restart dedups against the in-WAL copy instead of being re-accepted
  // into a second block — the double-delivery race. Proposals the snapshot
  // already recorded as delivered are skipped (their txs are committed);
  // for the rest, replay's a_deliver path marks whatever does commit, and
  // anything still undelivered stays deduped as in-flight.
  {
    std::unordered_set<Round> delivered_own;
    if (rec.snapshot.has_value()) {
      for (const core::DeliveredRecord& d : rec.snapshot->delivered) {
        if (d.source == pid()) delivered_own.insert(d.round);
      }
    }
    for (const storage::WalRecord& r : rec.records) {
      if (r.type != storage::WalRecordType::kProposal) continue;
      if (delivered_own.count(r.round) != 0) continue;
      const auto vx = dag::Vertex::deserialize(BytesView(r.payload));
      if (vx.ok()) mempool_.restore_block(BytesView(vx.value().block));
    }
  }

  builder_->begin_restore(floor);
  for (storage::WalRecord& r : rec.records) {
    if (r.type == storage::WalRecordType::kVertex) {
      builder_->restore_deliver(r.source, r.round, std::move(r.payload));
    } else {
      builder_->restore_own_proposal(r.round, std::move(r.payload));
    }
  }
  // Rebuild + deterministic replay of the post-snapshot waves: the rider's
  // snapshot guard suppresses the already-decided ones.
  builder_->finish_restore();
  last_compact_floor_ = builder_->gc_floor();
}

void Node::maybe_compact() {
  const Round floor = builder_->gc_floor();
  if (floor <= last_compact_floor_) return;
  last_compact_floor_ = floor;
  storage::Snapshot snap;
  snap.committee = committee();
  snap.pid = pid();
  snap.gc_floor = floor;
  snap.decided_wave = rider_->decided_wave();
  snap.ordering = static_cast<std::uint8_t>(opts_.ordering);
  snap.rounds_per_wave = builder_->rounds_per_wave();
  {
    std::lock_guard<std::mutex> lk(log_mu_);
    snap.delivered = delivered_;
    snap.commits = commits_;
  }
  store_->compact(snap, builder_->dag());
}

void Node::refill_from_mempool() {
  while (builder_->blocks_pending() < kMaxBlocksPending) {
    std::optional<Bytes> block = mempool_.drain_block(kBlockMaxTxs);
    if (!block) return;
    rider_->a_bcast(std::move(*block));
  }
}

ingress::SubmitStatus Node::submit_tx(txpool::Transaction tx) {
  // Internal (non-session) submission: origin 0 means no ack routing.
  return mempool_.submit(std::move(tx), ingress::TxOrigin{});
}

void Node::stop_loop() {
  if (loop_stopped_) return;
  loop_stopped_ = true;
  running_.store(false, std::memory_order_release);
  inbox_.close();
  if (thread_.joinable()) thread_.join();
}

void Node::stop_transport() {
  if (transport_stopped_) return;
  transport_stopped_ = true;
  // Ingress sessions go first: client-facing sockets must not outlive the
  // loop that produced their acks.
  if (ingress_) ingress_->stop();
  transport_->stop();
}

void Node::stop() {
  stop_loop();
  stop_transport();
}

metrics::Counters Node::counters() const {
  metrics::Counters out;
  const dag::BuilderStats& b = builder_->stats();
  out.emplace_back("builder.gc_dropped_deliveries", b.gc_dropped_deliveries);
  out.emplace_back("builder.gc_dropped_buffered", b.gc_dropped_buffered);
  out.emplace_back("builder.quota_rejections", b.quota_rejections);
  out.emplace_back("builder.sync_deliveries", b.sync_deliveries);
  out.emplace_back("builder.rounds_skipped", b.rounds_skipped);
  out.emplace_back("builder.proposals_rebroadcast", b.proposals_rebroadcast);
  out.emplace_back("builder.restored_vertices", b.restored_vertices);
  out.emplace_back("builder.gc_floor_holds", b.gc_floor_holds);
  // Frontier gauges (not monotonic): where this builder stands right now.
  out.emplace_back("builder.current_round", builder_->current_round());
  out.emplace_back("builder.gc_floor", builder_->gc_floor());
  out.emplace_back("builder.highest_seen_round",
                   builder_->highest_seen_round());
  out.emplace_back("builder.buffer_size", builder_->buffer_size());
  out.emplace_back("builder.lowest_missing_parent_round",
                   builder_->lowest_missing_parent_round());
  const CatchupStats& c = catchup_->stats();
  out.emplace_back("catchup.requests_sent", c.requests_sent);
  out.emplace_back("catchup.responses_received", c.responses_received);
  out.emplace_back("catchup.responses_served", c.responses_served);
  out.emplace_back("catchup.vertices_accepted", c.vertices_accepted);
  out.emplace_back("catchup.vertices_mismatched", c.vertices_mismatched);
  out.emplace_back("catchup.retries", c.retries);
  if (store_) {
    const storage::StoreStats& s = store_->stats();
    out.emplace_back("store.vertices_appended", s.vertices_appended);
    out.emplace_back("store.proposals_appended", s.proposals_appended);
    out.emplace_back("store.bytes_appended", s.bytes_appended);
    out.emplace_back("store.compactions", s.compactions);
    out.emplace_back("store.recovered_vertices", s.recovered_vertices);
    out.emplace_back("store.recovered_proposals", s.recovered_proposals);
    out.emplace_back("store.recovered_truncated_bytes",
                     s.recovered_truncated_bytes);
    out.emplace_back("store.snapshot_loaded", s.snapshot_loaded ? 1 : 0);
  }
  const ingress::MempoolStats m = mempool_.stats();
  out.emplace_back("mempool.accepted", m.accepted);
  out.emplace_back("mempool.rejected_busy", m.rejected_busy);
  out.emplace_back("mempool.rejected_dup_pending", m.rejected_dup_pending);
  out.emplace_back("mempool.rejected_dup_committed",
                   m.rejected_dup_committed);
  out.emplace_back("mempool.rejected_too_large", m.rejected_too_large);
  out.emplace_back("mempool.drained", m.drained);
  out.emplace_back("mempool.committed_with_origin", m.committed_with_origin);
  out.emplace_back("mempool.committed_foreign", m.committed_foreign);
  out.emplace_back("mempool.window_evictions", m.window_evictions);
  out.emplace_back("mempool.restored_in_flight", m.restored_in_flight);
  out.emplace_back("mempool.pending", mempool_.pending());
  out.emplace_back("mempool.in_flight", mempool_.in_flight());
  if (ingress_) metrics::append_prefixed(out, "ingress", ingress_->counters());
  // Backpressure on both sides of a link: the receiving inbox's grace
  // expiries (the only ones in-process links have; one per batch) and the
  // transport's own send-queue overflows, plus whatever the concrete
  // transport (or a chaos decorator around it) exposes, so fault-injection
  // soaks are auditable from the same flat snapshot as everything else.
  // The outbox's handoffs (send_batch calls) against the frames they
  // carried give the batching factor.
  out.emplace_back("node.inbox_overflows", inbox_.overflows());
  out.emplace_back("node.handoffs", bus_.handoffs());
  out.emplace_back("node.frames_sent", bus_.frames_sent());
  out.emplace_back("transport.backpressure_overflows",
                   transport_->backpressure_overflows());
  metrics::append_prefixed(out, "transport", transport_->counters());
  if (const core::ByzantineRbc* byz = stack_->byzantine()) {
    out.emplace_back("byzantine.attacks", byz->attacks());
  }
  out.emplace_back("ordering.kind",
                   static_cast<std::uint64_t>(opts_.ordering));
  out.emplace_back("ordering.decided_wave", rider_->decided_wave());
  out.emplace_back("ordering.waves_evaluated", rider_->waves_evaluated());
  out.emplace_back("ordering.waves_without_direct_commit",
                   rider_->waves_without_direct_commit());
  if (rider_->kind() == core::OrderingKind::kBullshark) {
    const auto* bs = static_cast<const core::BullsharkRider*>(rider_);
    out.emplace_back("ordering.steady_commits", bs->steady_commits());
    out.emplace_back("ordering.fallback_commits", bs->fallback_commits());
    out.emplace_back("ordering.fallback_entries", bs->fallback_entries());
    out.emplace_back(
        "ordering.fallback_mode",
        bs->mode() == core::BullsharkRider::Mode::kFallback ? 1 : 0);
  }
  return out;
}

std::vector<core::DeliveredRecord> Node::delivered_snapshot() const {
  std::lock_guard<std::mutex> lk(log_mu_);
  return delivered_;
}

std::vector<core::CommitRecord> Node::commits_snapshot() const {
  std::lock_guard<std::mutex> lk(log_mu_);
  return commits_;
}

}  // namespace dr::node
