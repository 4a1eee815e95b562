// TCP transport: length-prefixed frames (net/frame.hpp) over loopback/LAN
// sockets, one process per group of nodes. Link topology is dual-simplex:
// every node dials every other node once and uses that connection only for
// its own outgoing frames; the symmetric connection dialed by the peer
// carries the reverse direction. Each link opens with a versioned handshake
// and a committee cross-check, so mismatched builds or misconfigured
// clusters fail fast instead of corrupting streams.
//
// Threads per endpoint: 1 acceptor + (n-1) link writers + one reader per
// accepted connection. Backpressure is layered: a bounded per-link send
// queue (blocking-with-grace, like net::Inbox) in front of the kernel
// socket buffer, whose own fill blocks the writer thread.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/transport.hpp"

namespace dr::net {

struct TcpPeer {
  std::string host = "127.0.0.1";  ///< numeric IPv4 only
  std::uint16_t port = 0;
};

/// Binds `count` listening sockets on port 0, records the kernel-assigned
/// ports, and closes them. Racy by nature (another process may grab a port
/// before it is reused) but adequate for tests and single-machine demos.
std::vector<std::uint16_t> pick_free_ports(std::size_t count);

class TcpTransport final : public Transport {
 public:
  /// `peers[i]` is where node i listens; this endpoint binds peers[pid].
  TcpTransport(Committee committee, ProcessId pid, std::vector<TcpPeer> peers);
  ~TcpTransport() override;

  ProcessId pid() const override { return pid_; }
  const Committee& committee() const override { return committee_; }

  void start(RecvFn recv) override;
  void send(ProcessId to, Channel channel, Payload payload) override;
  void stop() override;

  std::uint64_t backpressure_overflows() const override {
    return overflows_.load(std::memory_order_relaxed);
  }
  /// Links whose byte stream or handshake violated the protocol.
  std::uint64_t protocol_errors() const {
    return protocol_errors_.load(std::memory_order_relaxed);
  }

  TransportCounters counters() const override {
    return {{"tcp.protocol_errors", protocol_errors()}};
  }

 private:
  /// One frame awaiting a link's socket: the per-link 12-byte header plus a
  /// refcounted reference to the payload buffer shared with every other link
  /// of the same broadcast. The writer sends both as one writev.
  struct OutFrame {
    FrameHeader header{};
    Payload payload;
  };

  struct OutLink {
    ProcessId peer = 0;
    std::thread writer;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<OutFrame> queue;  ///< frames awaiting the socket
    bool closed = false;
    int fd = -1;  ///< guarded by mu; published so stop() can shutdown()
  };

  void writer_loop(OutLink& link);
  void acceptor_loop();
  void reader_loop(std::size_t idx, int fd);
  int dial(const TcpPeer& peer) const;
  void enqueue(OutLink& link, OutFrame frame);

  Committee committee_;
  ProcessId pid_;
  std::vector<TcpPeer> peers_;
  RecvFn recv_;

  std::atomic<int> listen_fd_{-1};
  std::thread acceptor_;
  std::vector<std::unique_ptr<OutLink>> out_;  ///< indexed by peer pid

  std::mutex readers_mu_;
  std::vector<std::thread> readers_;
  std::vector<int> reader_fds_;

  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> overflows_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
};

}  // namespace dr::net
