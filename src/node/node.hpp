// Real-concurrency node runtime: one OS-thread event loop hosting the same
// core::ProcessStack the simulator runs (reliable broadcast + threshold coin
// + DAG builder + ordering rule), behind a thread-safe inbox.
//
// Concurrency model (see DESIGN.md "Real-concurrency runtime"): the protocol
// stack is single-threaded and lock-free by construction — every message,
// including this node's own broadcasts looping back, is dispatched on the
// node thread from the inbox. Thread-safety exists only at the boundaries:
// the net::Inbox (transport/link threads push, node thread drains), the
// sharded mempool's per-shard locks (client/ingress threads submit, node
// thread drains), the ingress server's ack queue (node thread enqueues, the
// ingress I/O thread flushes), and the delivered/commit log mutex (node
// thread appends, observers snapshot). Nothing inside rbc/, dag/, or core/
// ever sees two threads.
#pragma once

#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "coin/dealer.hpp"
#include "common/assert.hpp"
#include "core/records.hpp"
#include "core/stack.hpp"
#include "ingress/mempool.hpp"
#include "ingress/server.hpp"
#include "metrics/counters.hpp"
#include "net/bus.hpp"
#include "net/inbox.hpp"
#include "net/transport.hpp"
#include "node/catchup.hpp"
#include "storage/store.hpp"

namespace dr::node {

struct NodeOptions {
  rbc::RbcKind rbc_kind = rbc::RbcKind::kBracha;
  core::CoinMode coin_mode = core::CoinMode::kPiggyback;
  /// Which commit rule orders the DAG (DESIGN.md §14). kBullshark forces
  /// builder.rounds_per_wave to 2 (its wave geometry).
  core::OrderingKind ordering = core::OrderingKind::kDagRider;
  core::BullsharkOptions bullshark{};
  /// auto_blocks keeps rounds advancing when the mempool runs dry (the
  /// paper's "infinitely many blocks" assumption); size 0 = empty filler.
  /// lag_skip_threshold lets a node that restarted far behind sprint to the
  /// frontier instead of proposing into already-closed rounds.
  dag::BuilderOptions builder{.auto_blocks = true, .auto_block_size = 0,
                              .lag_skip_threshold = 2};
  /// Durable storage (DESIGN.md §10): empty = no persistence (the seed
  /// behaviour); set to a directory to WAL every accepted vertex and own
  /// proposal there and to recover from it on the next start().
  std::string wal_dir;
  /// fsync per WAL append (power-failure durability; default covers process
  /// crashes only, matching the restart tests' crash model).
  bool wal_fsync = false;
  /// Peer catch-up sync over Channel::kSync.
  CatchupOptions catchup{};
  /// Live adversarial profile (DESIGN.md §12): kHonest runs the protocol
  /// faithfully; any other value replaces the RBC with an attacking one
  /// (core/byzantine.hpp). The crafted-SEND profiles require kBracha.
  core::ByzantineProfile byzantine = core::ByzantineProfile::kHonest;
  Round gc_depth_rounds = 0;
  /// Laggard-aware GC holdback: a peer heard from within this window pins
  /// the GC floor cap to just below its highest delivered round, keeping the
  /// history it may still catch-up-fetch servable (DESIGN.md §10). A peer
  /// silent for longer stops constraining the floor. 0 disables the clamp.
  std::uint64_t gc_peer_liveness_us = 2'000'000;
  std::uint64_t seed = 1;
  /// Transactions drained from the mempool into one proposed block.
  std::size_t block_max_txs = 256;
  /// Proposed-block backlog above which the loop stops draining the mempool
  /// (blocks park in the builder queue; leaving them in the mempool instead
  /// keeps them eligible for duplicate suppression).
  std::size_t max_blocks_pending = 2;
  std::size_t inbox_capacity = 1 << 16;
  /// Event-loop sleep cap when the inbox is empty.
  std::chrono::milliseconds idle_wait{1};
  /// Sharded mempool behind submit()/the ingress tier (DESIGN.md §13).
  ingress::MempoolOptions mempool{};
  /// Client ingress front end: when enabled, start() also opens a TCP
  /// tx-submission endpoint (ingress.port 0 = kernel-assigned, read back via
  /// ingress_port()) and a_deliver routes commit acks to client sessions.
  bool ingress_enable = false;
  ingress::ServerOptions ingress{};
};

/// net::Bus facade over one Transport endpoint: subscribe() registers local
/// handlers, send/broadcast go out through the transport, and dispatch()
/// (called only from the node thread) routes inbound frames to handlers.
/// This is the piece that lets rbc/ and coin/ components run unmodified on
/// real links.
class NodeBus final : public net::Bus {
 public:
  explicit NodeBus(net::Transport& transport)
      : transport_(transport), handlers_(net::kChannelCount) {}

  const Committee& committee() const override { return transport_.committee(); }

  void subscribe(ProcessId pid, net::Channel channel, Handler handler) override {
    DR_ASSERT_MSG(pid == transport_.pid(),
                  "NodeBus hosts exactly one process's handlers");
    handlers_[static_cast<std::uint32_t>(channel)] = std::move(handler);
  }

  void send(ProcessId from, ProcessId to, net::Channel channel,
            net::Payload payload) override {
    DR_ASSERT(from == transport_.pid());
    transport_.send(to, channel, std::move(payload));
  }

  void broadcast(ProcessId from, net::Channel channel,
                 net::Payload payload) override {
    DR_ASSERT(from == transport_.pid());
    // All n links (and the self-loop) share one payload buffer; only the
    // frame header is per-destination.
    for (ProcessId to = 0; to < committee().n; ++to) {
      transport_.send(to, channel, payload);
    }
  }

  /// Node-thread only.
  void dispatch(const net::Frame& f) {
    const auto idx = static_cast<std::uint32_t>(f.channel);
    if (idx < handlers_.size() && handlers_[idx]) {
      handlers_[idx](f.from, f.payload);
    }
  }

 private:
  net::Transport& transport_;
  std::vector<Handler> handlers_;
};

/// One live DAG-Rider process on a real transport.
class Node {
 public:
  /// `dealer` must outlive the node and be derived from the same master seed
  /// at every process (coin::kDealerSeedTweak); required for threshold /
  /// piggyback coin modes, may be nullptr for kLocal.
  Node(std::unique_ptr<net::Transport> transport,
       const coin::CoinDealer* dealer, NodeOptions opts = {});
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  ProcessId pid() const { return transport_->pid(); }
  const Committee& committee() const { return transport_->committee(); }

  /// Starts the transport and the event loop; the loop's first act is
  /// builder().start(), broadcasting this node's round-1 vertex.
  void start();

  /// stop_loop() then stop_transport(). For in-process clusters the two
  /// phases must be split across all nodes (Cluster does this): every event
  /// loop must be joined before any transport is torn down, because peer
  /// node threads deliver straight into this node's inbox.
  void stop();
  void stop_loop();
  void stop_transport();

  /// Thread-safe client submission into the mempool. Returns false on
  /// duplicate or mempool overflow (client-facing backpressure).
  bool submit(txpool::Transaction tx);

  /// Full-verdict submission path (what the ingress server uses); submit()
  /// is the boolean convenience wrapper over this.
  ingress::SubmitStatus submit_tx(txpool::Transaction tx);

  ingress::ShardedMempool& mempool() { return mempool_; }
  /// Non-null iff opts.ingress_enable; the TCP port is assigned in start().
  ingress::IngressServer* ingress() { return ingress_.get(); }
  std::uint16_t ingress_port() const {
    return ingress_ ? ingress_->port() : 0;
  }

  /// a_bcast(b): queues an opaque block for proposal, bypassing the mempool.
  /// Thread-safe; the block rides the inbox to the node thread.
  void a_bcast(Bytes block);

  /// Microseconds since this node's construction (the `time` base of its
  /// delivery records; also the submit_time base for latency measurement).
  std::uint64_t now_us() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  std::uint64_t delivered_count() const {
    return delivered_count_.load(std::memory_order_acquire);
  }
  std::vector<core::DeliveredRecord> delivered_snapshot() const;
  std::vector<core::CommitRecord> commits_snapshot() const;

  /// Own proposals persisted to the WAL so far (0 when durability is off).
  /// Atomic: safe to poll while the node runs, unlike counters().
  std::uint64_t proposals_logged() const {
    return proposals_logged_.load(std::memory_order_relaxed);
  }

  std::uint64_t inbox_overflows() const { return inbox_.overflows(); }
  std::uint64_t backpressure_overflows() const {
    return transport_->backpressure_overflows();
  }

  /// Flat snapshot of the builder / catch-up / storage counters. Reads
  /// node-thread state, so call only after stop_loop() (or before start()).
  metrics::Counters counters() const;

  /// Application delivery hook, invoked on the node thread after the record
  /// is logged. Set before start().
  using AppDeliverFn = std::function<void(const Bytes& block, Round r,
                                          ProcessId source, std::uint64_t t_us)>;
  void set_app_deliver(AppDeliverFn fn) { app_deliver_ = std::move(fn); }

  net::Transport& transport() { return *transport_; }

 private:
  void loop();
  void refill_from_mempool();
  /// Recomputes the laggard-aware GC floor cap from per-peer progress.
  void refresh_gc_floor_cap(std::uint64_t now);
  /// Replays snapshot + WAL into the rider/builder; node thread, pre-start.
  void recover_from_store();
  /// Snapshots + rewrites the WAL whenever the GC floor has risen.
  void maybe_compact();

  NodeOptions opts_;
  std::unique_ptr<net::Transport> transport_;
  net::Inbox inbox_;
  NodeBus bus_;

  std::unique_ptr<core::ProcessStack> stack_;
  // Cached views into stack_ for the event loop.
  dag::DagBuilder* builder_ = nullptr;
  core::OrderingRule* rider_ = nullptr;
  std::unique_ptr<storage::VertexStore> store_;
  std::unique_ptr<CatchupSync> catchup_;
  Round last_compact_floor_ = 0;
  /// now_us() of the last frame received from each peer (node thread only).
  std::vector<std::uint64_t> last_heard_us_;

  ingress::ShardedMempool mempool_;
  std::unique_ptr<ingress::IngressServer> ingress_;

  mutable std::mutex log_mu_;
  std::vector<core::DeliveredRecord> delivered_;
  std::vector<core::CommitRecord> commits_;
  std::atomic<std::uint64_t> delivered_count_{0};
  std::atomic<std::uint64_t> proposals_logged_{0};

  AppDeliverFn app_deliver_;
  std::chrono::steady_clock::time_point epoch_;
  std::thread thread_;
  std::atomic<bool> running_{false};
  bool loop_stopped_ = false;
  bool transport_stopped_ = false;
};

}  // namespace dr::node
