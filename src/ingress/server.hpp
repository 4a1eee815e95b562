// TCP tx-submission front end (DESIGN.md §13). One poll()-driven I/O thread
// owns every client session: it accepts connections, runs the hello
// exchange, decodes SubmitBatch frames, pushes transactions into the
// Mempool with their origin attached, answers with per-tx
// SubmitReply verdicts, and flushes CommitAcks queued by the node thread's
// a_deliver path back to the owning session.
//
// Threading contract: the I/O thread is the only toucher of sockets and
// session state. The node thread calls complete() — which only appends to a
// mutex-guarded ack queue and pokes the wake pipe — and any thread may read
// counters(). Per-session output queues are bounded; a slow client loses
// acks (counted), never stalls the server.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "ingress/mempool.hpp"
#include "ingress/sockets.hpp"
#include "metrics/counters.hpp"
#include "net/frame.hpp"

namespace dr::ingress {

/// Globally-unique transaction id derived from the client's (client_id,
/// tx_id) pair. Deterministic, so a reconnecting client resubmitting the
/// same logical tx reproduces the same id — and therefore the same tx
/// digest — on every node.
std::uint64_t compose_tx_id(std::uint64_t client_id, std::uint64_t tx_id);

/// Deterministic payload for (client_id, tx_id): 16 bytes of ids followed by
/// SplitMix64 filler. Regenerable, so a reconnecting client resubmits
/// exactly the bytes it first sent. Always at least 16 bytes.
Bytes client_payload(std::uint64_t client_id, std::uint64_t tx_id,
                     std::size_t bytes);

/// Fixed log2-microsecond latency histogram: lock-free record() from any
/// thread, approximate percentiles good to a factor of two — enough for the
/// server-side ack-latency counters (the chaos soak's client driver computes
/// exact client-side percentiles separately).
class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  void record(std::uint64_t us);
  std::uint64_t total() const;
  /// Upper bound of the bucket holding the p-quantile (p in [0,1]);
  /// 0 when empty.
  std::uint64_t percentile_us(double p) const;

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
};

struct ServerOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = kernel-assigned; read back via port()
  std::size_t max_sessions = 1 << 16;
};

class IngressServer {
 public:
  IngressServer(Mempool& mempool, ServerOptions opts);
  ~IngressServer();

  IngressServer(const IngressServer&) = delete;
  IngressServer& operator=(const IngressServer&) = delete;

  bool start();
  void stop();

  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }

  /// Node thread, a_deliver path: queue a commit ack for the session that
  /// submitted `origin` and record the submit->deliver latency (both ends
  /// stamped on this server's own clock). Safe to call when stopped.
  void complete(const TxOrigin& origin);

  /// Monotonic microseconds on the clock submit_us is stamped with.
  static std::uint64_t now_us();

  metrics::Counters counters() const;
  const LatencyHistogram& ack_latency() const { return ack_latency_; }

 private:
  struct Session;

  void io_loop();
  void accept_new_sessions();
  void service_session(std::size_t slot, Session& s, bool readable,
                       bool writable);
  void handle_message(Session& s, const net::Frame& frame);
  void handle_batch(Session& s, const SubmitBatch& batch);
  void flush_pending_acks();
  bool queue_bytes(Session& s, Bytes bytes, bool droppable);
  void flush_out(Session& s);
  void close_session(std::size_t idx);

  Mempool& mempool_;
  ServerOptions opts_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::thread io_thread_;
  std::atomic<bool> running_{false};

  /// I/O-thread-only session table (index-stable via tombstones) plus the
  /// session_id -> slot map the ack flusher routes with.
  std::vector<std::unique_ptr<Session>> sessions_;
  std::unordered_map<std::uint64_t, std::size_t> by_id_;
  std::size_t live_sessions_ = 0;
  std::uint64_t next_session_id_ = 1;

  /// complete() -> I/O thread handoff.
  std::mutex acks_mu_;
  std::vector<AckEntry> pending_acks_;
  std::vector<std::uint64_t> pending_ack_sessions_;
  sock::WakePipe wake_;

  LatencyHistogram ack_latency_;
  std::atomic<std::uint64_t> sessions_opened_{0};
  std::atomic<std::uint64_t> sessions_closed_{0};
  std::atomic<std::uint64_t> sessions_rejected_full_{0};
  std::atomic<std::uint64_t> handshake_failures_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> batches_rx_{0};
  std::atomic<std::uint64_t> txs_rx_{0};
  std::atomic<std::uint64_t> acks_enqueued_{0};
  std::atomic<std::uint64_t> acks_sent_{0};
  std::atomic<std::uint64_t> acks_dropped_{0};
  std::atomic<std::uint64_t> acks_orphaned_{0};
};

}  // namespace dr::ingress
