// Point-to-point message carrier for one node endpoint. Implementations:
//   InProcNetwork/endpoint — shared-memory delivery between OS threads in
//     one process (the real-concurrency analogue of sim::Network);
//   TcpTransport — length-prefixed frames (net/frame.hpp) over TCP, with a
//     versioned handshake per link and a bounded per-link send queue.
// Delivery invokes the receive hook from transport- or sender-owned threads;
// the hosting node is expected to queue into its own event loop (node::Node
// routes everything through a net::Inbox) rather than process in place.
// Frames may also move in per-peer batches (send_batch / start_batched);
// a transport that does not override them, such as a decorator, carries a
// batch as that many single-frame sends and deliveries.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "net/frame.hpp"

namespace dr::net {

/// Flat named-counter snapshot a transport exposes for introspection.
/// Structurally identical to metrics::Counters (net/ cannot depend on
/// metrics/); node::Node::counters() merges these under a "transport."
/// prefix so soak runs are auditable from bench/CI artifacts.
using TransportCounters = std::vector<std::pair<std::string, std::uint64_t>>;

class Transport {
 public:
  using RecvFn = std::function<void(Frame f)>;
  /// Batch receive hook: every frame of one call comes from the same sender,
  /// in that link's send order. The hook may move the frames out.
  using BatchRecvFn = std::function<void(std::vector<Frame>& frames)>;

  virtual ~Transport() = default;

  virtual ProcessId pid() const = 0;
  virtual const Committee& committee() const = 0;

  /// Begins delivering inbound frames to `recv`. Must be called before any
  /// send; `recv` must be thread-safe (it is called from other threads).
  virtual void start(RecvFn recv) = 0;

  /// Queues `payload` for `to`. Self-sends loop back through the recv path
  /// (queued, never synchronous) so protocol code sees uniform semantics.
  /// Blocking is the backpressure mechanism; see the implementations. The
  /// payload buffer is shared, never copied: a broadcast passes the same
  /// Payload to all n sends and only the 12-byte frame header is per-link.
  virtual void send(ProcessId to, Channel channel, Payload payload) = 0;

  /// Batch form of start(): one hook call may carry many frames. The
  /// default adapts it onto start() with one single-frame batch per frame.
  virtual void start_batched(BatchRecvFn recv) {
    start([recv = std::move(recv)](Frame f) {
      std::vector<Frame> one;
      one.push_back(std::move(f));
      recv(one);
    });
  }

  /// Sends `frames` to `to` in order, as one handoff where the transport
  /// can, and leaves `frames` empty. The sender is this endpoint whatever
  /// the frames' `from` says. The default is one send() per frame.
  virtual void send_batch(ProcessId to, std::vector<Frame>& frames) {
    for (Frame& f : frames) send(to, f.channel, std::move(f.payload));
    frames.clear();
  }

  /// Stops all transport threads and closes links. After return, no more
  /// recv callbacks fire. Idempotent.
  virtual void stop() = 0;

  /// Sends that overstayed a full send queue's grace period (forced through
  /// rather than deadlocking; nonzero means the cluster is overdriven).
  virtual std::uint64_t backpressure_overflows() const { return 0; }

  /// Implementation-specific counters (chaos fault injection, TCP protocol
  /// errors, ...). Decorators append their own to the wrapped transport's.
  virtual TransportCounters counters() const { return {}; }
};

}  // namespace dr::net
