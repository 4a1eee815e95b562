#include "ingress/client.hpp"

#include <algorithm>
#include <chrono>

namespace dr::ingress {

namespace {

/// Local bound on queued outbound frames; submit() refuses beyond it
/// (client-side backpressure: the caller retries later or sheds the tx).
constexpr std::size_t kMaxOutFrames = 256;

std::uint64_t mono_ms() {
  const auto d = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(d).count());
}

}  // namespace

bool Client::connect(int timeout_ms) {
  close();
  const std::uint64_t deadline =
      mono_ms() + static_cast<std::uint64_t>(std::max(0, timeout_ms));
  fd_ = sock::connect_nonblocking(opts_.host, opts_.port);
  if (fd_ < 0) return false;
  // Wait for the TCP handshake to finish.
  for (;;) {
    pollfd pfd{fd_, static_cast<short>(POLLOUT), 0};
    const int rc = sock::poll_fds(&pfd, 1, 10);
    if (rc > 0) break;
    if (mono_ms() >= deadline) {
      close();
      return false;
    }
  }
  if (!sock::connect_finished(fd_)) {
    close();
    return false;
  }
  sock::set_nodelay(fd_);
  // Hello out (8 bytes — fits any socket buffer, but stay nonblocking).
  const Bytes hello = encode_client_hello(ClientHello{});
  std::size_t sent_total = 0;
  while (sent_total < hello.size()) {
    std::size_t sent = 0;
    const sock::Io rc = sock::send_some(fd_, hello.data() + sent_total,
                                        hello.size() - sent_total, sent);
    if (rc == sock::Io::kClosed || mono_ms() >= deadline) {
      close();
      return false;
    }
    sent_total += sent;
    if (rc == sock::Io::kWouldBlock) {
      pollfd pfd{fd_, static_cast<short>(POLLOUT), 0};
      sock::poll_fds(&pfd, 1, 10);
    }
  }
  // Hello back (16 bytes).
  std::uint8_t buf[kServerHelloBytes];
  std::size_t got_total = 0;
  while (got_total < kServerHelloBytes) {
    std::size_t got = 0;
    const sock::Io rc = sock::recv_some(fd_, buf + got_total,
                                        kServerHelloBytes - got_total, got);
    if (rc == sock::Io::kClosed || mono_ms() >= deadline) {
      close();
      return false;
    }
    got_total += got;
    if (rc == sock::Io::kWouldBlock) {
      pollfd pfd{fd_, static_cast<short>(POLLIN), 0};
      sock::poll_fds(&pfd, 1, 10);
    }
  }
  const auto reply = decode_server_hello(BytesView{buf, kServerHelloBytes});
  if (!reply.ok() || reply.value().status != HelloStatus::kOk) {
    close();
    return false;
  }
  session_ = reply.value().session_id;
  return true;
}

void Client::close() {
  if (fd_ >= 0) sock::close_fd(fd_);
  fd_ = -1;
  session_ = 0;
  decoder_ = net::FrameDecoder{0};
  out_.clear();
  out_offset_ = 0;
}

bool Client::submit(std::uint64_t client_id, std::uint64_t tx_id,
                    BytesView payload) {
  SubmitBatch batch;
  batch.client_id = client_id;
  batch.txs.push_back(TxSubmit{tx_id, Bytes(payload.begin(), payload.end())});
  return submit_batch(batch);
}

bool Client::submit_batch(const SubmitBatch& batch) {
  if (!connected() || batch.txs.empty()) return false;
  return queue_frame(net::encode_frame(0, net::Channel::kIngress,
                                       BytesView(encode_submit_batch(batch))));
}

bool Client::process(int timeout_ms) {
  if (fd_ < 0) return false;
  const auto events = static_cast<short>(
      out_.empty() ? POLLIN : (POLLIN | POLLOUT));
  pollfd pfd{fd_, events, 0};
  const int rc = sock::poll_fds(&pfd, 1, timeout_ms);
  if (rc < 0) {
    close();
    return false;
  }
  if (rc > 0 && (pfd.revents & (POLLERR | POLLNVAL)) != 0) {
    close();
    return false;
  }
  if (!out_.empty() && !flush_out()) return false;
  if (rc > 0 && (pfd.revents & (POLLIN | POLLHUP)) != 0 && !read_ready()) {
    return false;
  }
  return fd_ >= 0;
}

bool Client::queue_frame(Bytes frame) {
  if (out_.size() >= kMaxOutFrames) return false;
  out_.push_back(std::move(frame));
  return flush_out();
}

bool Client::flush_out() {
  while (!out_.empty()) {
    const Bytes& front = out_.front();
    std::size_t sent = 0;
    const sock::Io rc = sock::send_some(fd_, front.data() + out_offset_,
                                        front.size() - out_offset_, sent);
    if (rc == sock::Io::kClosed) {
      close();
      return false;
    }
    out_offset_ += sent;
    if (out_offset_ == front.size()) {
      out_.pop_front();
      out_offset_ = 0;
      continue;
    }
    if (rc == sock::Io::kWouldBlock) break;
  }
  return true;
}

bool Client::read_ready() {
  std::uint8_t buf[4096];
  for (;;) {
    std::size_t got = 0;
    const sock::Io rc = sock::recv_some(fd_, buf, sizeof(buf), got);
    if (rc == sock::Io::kWouldBlock) break;
    if (rc == sock::Io::kClosed) {
      close();
      return false;
    }
    decoder_.feed(BytesView{buf, got});
    while (auto frame = decoder_.next()) dispatch(*frame);
    if (decoder_.dead()) {
      close();
      return false;
    }
  }
  return true;
}

void Client::dispatch(const net::Frame& frame) {
  if (frame.channel != net::Channel::kIngress) return;
  const auto msg = decode_ingress_message(frame.payload.view());
  if (!msg.ok()) return;
  if (msg.value().reply.has_value() && on_reply) {
    const SubmitReply& reply = *msg.value().reply;
    for (const ReplyEntry& e : reply.entries) {
      on_reply(reply.client_id, e.tx_id, e.status);
    }
  }
  if (msg.value().acks.has_value() && on_ack) {
    for (const AckEntry& a : msg.value().acks->acks) {
      on_ack(a.client_id, a.tx_id, a.latency_us);
    }
  }
}

}  // namespace dr::ingress
