// Client side of the ingress wire protocol (DESIGN.md §13): one TCP
// connection = one session. Single-threaded by design — the owner calls
// process() to pump I/O and receives SubmitReply / CommitAcks through
// callbacks; the chaos soak's client driver (src/node/soak.cpp) multiplexes
// hundreds of logical clients over a handful of these connections, polling
// their fds itself.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>

#include "ingress/sockets.hpp"
#include "ingress/wire.hpp"
#include "net/frame.hpp"

namespace dr::ingress {

class Client {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
  };

  explicit Client(Options opts) : opts_(std::move(opts)) {}
  ~Client() { close(); }

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Nonblocking connect + hello exchange, bounded by timeout_ms (polling,
  /// never parking in a blocking syscall). False on refusal, timeout, a
  /// kFull server, or a malformed hello.
  bool connect(int timeout_ms);
  void close();

  bool connected() const { return fd_ >= 0 && session_ != 0; }
  std::uint64_t session_id() const { return session_; }
  int fd() const { return fd_; }
  bool has_backlog() const { return !out_.empty(); }

  /// Queue one tx (or a prebuilt batch) for submission. False when
  /// disconnected or the local out-queue is full — the caller retries later.
  bool submit(std::uint64_t client_id, std::uint64_t tx_id,
              BytesView payload);
  bool submit_batch(const SubmitBatch& batch);

  /// Pump I/O for up to timeout_ms (0 = just poll once): flush queued
  /// frames, read whatever arrived, fire callbacks. Returns false once the
  /// connection is gone.
  bool process(int timeout_ms);

  /// Per-tx admission verdict from a SubmitReply.
  std::function<void(std::uint64_t client_id, std::uint64_t tx_id,
                     SubmitStatus status)>
      on_reply;
  /// Commit acknowledgement; latency_us is the server-observed figure.
  std::function<void(std::uint64_t client_id, std::uint64_t tx_id,
                     std::uint64_t latency_us)>
      on_ack;

 private:
  bool queue_frame(Bytes frame);
  bool flush_out();
  bool read_ready();
  void dispatch(const net::Frame& frame);

  Options opts_;
  int fd_ = -1;
  std::uint64_t session_ = 0;
  net::FrameDecoder decoder_{0};
  std::deque<Bytes> out_;
  std::size_t out_offset_ = 0;
};

}  // namespace dr::ingress
