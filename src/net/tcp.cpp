#include "net/tcp.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>

#include "common/assert.hpp"

namespace dr::net {

namespace {

/// Per-link send-queue bound (frames), and how long enqueue() blocks on a
/// full queue before it force-enqueues and counts an overflow.
constexpr std::size_t kSendQueueCapacity = 8192;
constexpr std::chrono::milliseconds kOverflowGrace{100};
/// How long dial() keeps retrying a peer that is not listening yet.
constexpr std::chrono::milliseconds kConnectTimeout{15'000};

/// Writes the whole buffer, riding out partial writes and EINTR. MSG_NOSIGNAL
/// turns a dead peer into an error return instead of SIGPIPE.
bool write_all(int fd, const std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

/// Writes one frame as a header+payload iovec pair, riding out partial
/// writes and EINTR without ever concatenating the two buffers — the payload
/// iovec points straight into the refcounted buffer shared across links.
bool writev_frame(int fd, const std::uint8_t* header, std::size_t header_len,
                  const std::uint8_t* payload, std::size_t payload_len) {
  std::size_t off = 0;
  const std::size_t total = header_len + payload_len;
  while (off < total) {
    iovec iov[2];
    int iovcnt = 0;
    if (off < header_len) {
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(header + off);
      iov[iovcnt].iov_len = header_len - off;
      ++iovcnt;
    }
    const std::size_t p_off = off > header_len ? off - header_len : 0;
    if (p_off < payload_len) {
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(payload + p_off);
      iov[iovcnt].iov_len = payload_len - p_off;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    const ssize_t k = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(k);
  }
  return true;
}

/// Reads exactly `len` bytes; false on EOF/error.
bool read_exact(int fd, std::uint8_t* data, std::size_t len) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t k = ::recv(fd, data + off, len - off, 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (k == 0) return false;
    off += static_cast<std::size_t>(k);
  }
  return true;
}

sockaddr_in make_addr(const TcpPeer& peer) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  const char* host = peer.host == "localhost" ? "127.0.0.1" : peer.host.c_str();
  DR_ASSERT_MSG(::inet_pton(AF_INET, host, &addr.sin_addr) == 1,
                "TcpTransport: host must be a numeric IPv4 address");
  return addr;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

std::vector<std::uint16_t> pick_free_ports(std::size_t count) {
  std::vector<std::uint16_t> ports;
  std::vector<int> fds;
  for (std::size_t i = 0; i < count; ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    DR_ASSERT(fd >= 0);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    DR_ASSERT(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0);
    socklen_t len = sizeof(addr);
    DR_ASSERT(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0);
    ports.push_back(ntohs(addr.sin_port));
    fds.push_back(fd);
  }
  for (int fd : fds) ::close(fd);
  return ports;
}

TcpTransport::TcpTransport(Committee committee, ProcessId pid,
                           std::vector<TcpPeer> peers)
    : committee_(committee), pid_(pid), peers_(std::move(peers)) {
  DR_ASSERT_MSG(committee_.valid(), "TcpTransport: committee must satisfy n > 3f");
  DR_ASSERT(pid_ < committee_.n);
  DR_ASSERT_MSG(peers_.size() == committee_.n,
                "TcpTransport: need one listen address per committee member");
}

TcpTransport::~TcpTransport() { stop(); }

void TcpTransport::start(RecvFn recv) {
  DR_ASSERT_MSG(!running_.load(), "TcpTransport::start called twice");
  recv_ = std::move(recv);

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  DR_ASSERT(lfd >= 0);
  int one = 1;
  ::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr = make_addr(peers_[pid_]);
  DR_ASSERT_MSG(
      ::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0,
      "TcpTransport: bind failed (port in use?)");
  DR_ASSERT(::listen(lfd, static_cast<int>(committee_.n) + 8) == 0);
  listen_fd_.store(lfd, std::memory_order_release);

  running_.store(true);
  acceptor_ = std::thread([this] { acceptor_loop(); });

  out_.resize(committee_.n);
  for (ProcessId peer = 0; peer < committee_.n; ++peer) {
    if (peer == pid_) continue;
    out_[peer] = std::make_unique<OutLink>();
    out_[peer]->peer = peer;
    OutLink* link = out_[peer].get();
    link->writer = std::thread([this, link] { writer_loop(*link); });
  }
}

void TcpTransport::send(ProcessId to, Channel channel, Payload payload) {
  DR_ASSERT(to < committee_.n);
  if (!running_.load(std::memory_order_acquire)) return;
  if (to == pid_) {
    // Loop self-sends straight into the recv path; the node queues them,
    // preserving the "never synchronous" delivery contract.
    recv_(Frame{pid_, channel, std::move(payload)});
    return;
  }
  OutFrame frame;
  frame.header = encode_frame_header(pid_, channel, payload.size());
  frame.payload = std::move(payload);
  enqueue(*out_[to], std::move(frame));
}

void TcpTransport::enqueue(OutLink& link, OutFrame frame) {
  std::unique_lock<std::mutex> lk(link.mu);
  if (link.closed) return;
  if (link.queue.size() >= kSendQueueCapacity) {
    if (!link.cv.wait_for(lk, kOverflowGrace, [&] {
          return link.queue.size() < kSendQueueCapacity || link.closed;
        })) {
      overflows_.fetch_add(1, std::memory_order_relaxed);
    }
    if (link.closed) return;
  }
  link.queue.push_back(std::move(frame));
  link.cv.notify_all();
}

int TcpTransport::dial(const TcpPeer& peer) const {
  const auto deadline = std::chrono::steady_clock::now() + kConnectTimeout;
  sockaddr_in addr = make_addr(peer);
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd >= 0 &&
        ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
      set_nodelay(fd);
      return fd;
    }
    if (fd >= 0) ::close(fd);
    if (std::chrono::steady_clock::now() > deadline) break;
    // The peer's listener may simply not be up yet (processes start in any
    // order); retry until the deadline.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  return -1;
}

void TcpTransport::writer_loop(OutLink& link) {
  const int fd = dial(peers_[link.peer]);
  {
    std::lock_guard<std::mutex> lk(link.mu);
    if (fd < 0) {
      link.closed = true;
      return;
    }
    link.fd = fd;  // published so stop() can shutdown a blocked write
  }
  // A link-level closer that keeps fd bookkeeping race-free: the fd is
  // closed exactly once, under the link mutex.
  auto close_link = [&] {
    std::lock_guard<std::mutex> lk(link.mu);
    link.closed = true;
    if (link.fd >= 0) {
      ::close(link.fd);
      link.fd = -1;
    }
    link.cv.notify_all();
  };

  const Bytes hello = encode_handshake(
      Handshake{kWireMagic, kWireVersion, pid_, committee_.n, committee_.f});
  if (!write_all(fd, hello.data(), hello.size())) {
    close_link();
    return;
  }

  std::vector<OutFrame> batch;
  while (true) {
    {
      std::unique_lock<std::mutex> lk(link.mu);
      link.cv.wait(lk, [&] { return !link.queue.empty() || link.closed; });
      if (link.queue.empty()) break;  // closed and drained
      while (!link.queue.empty()) {
        batch.push_back(std::move(link.queue.front()));
        link.queue.pop_front();
      }
      link.cv.notify_all();  // wake senders blocked on a full queue
    }
    for (OutFrame& frame : batch) {
      if (!writev_frame(fd, frame.header.data(), frame.header.size(),
                        frame.payload.data(), frame.payload.size())) {
        close_link();
        return;
      }
    }
    batch.clear();
  }
  close_link();
}

void TcpTransport::acceptor_loop() {
  const int lfd = listen_fd_.load(std::memory_order_acquire);
  while (running_.load(std::memory_order_acquire)) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop()
    }
    set_nodelay(fd);
    std::lock_guard<std::mutex> lk(readers_mu_);
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    const std::size_t idx = reader_fds_.size();
    reader_fds_.push_back(fd);
    readers_.emplace_back([this, idx, fd] { reader_loop(idx, fd); });
  }
}

void TcpTransport::reader_loop(std::size_t idx, int fd) {
  // The fd is closed on every exit path, under readers_mu_, and the slot is
  // tombstoned so stop() never touches a recycled descriptor.
  auto close_reader = [&] {
    std::lock_guard<std::mutex> lk(readers_mu_);
    ::close(fd);
    reader_fds_[idx] = -1;
  };

  std::uint8_t hs_buf[kHandshakeWireBytes];
  if (!read_exact(fd, hs_buf, sizeof(hs_buf))) {
    close_reader();
    return;
  }
  const auto hs = decode_handshake(BytesView{hs_buf, sizeof(hs_buf)});
  if (!hs.ok() || hs.value().pid >= committee_.n ||
      hs.value().n != committee_.n || hs.value().f != committee_.f ||
      hs.value().pid == pid_) {
    // Wrong version / wrong committee / forged id: refuse the link. Closing
    // is the whole error protocol — the dialer sees EOF and gives up.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    close_reader();
    return;
  }
  const ProcessId peer = hs.value().pid;

  FrameDecoder decoder(committee_.n);
  std::uint8_t buf[64 * 1024];
  while (running_.load(std::memory_order_acquire)) {
    const ssize_t k = ::recv(fd, buf, sizeof(buf), 0);
    if (k < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (k == 0) break;  // clean EOF
    decoder.feed(BytesView{buf, static_cast<std::size_t>(k)});
    while (auto frame = decoder.next()) {
      if (frame->from != peer) {
        // A frame must carry its link owner's id; anything else is a bug or
        // an impersonation attempt.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        close_reader();
        return;
      }
      recv_(std::move(*frame));
    }
    if (decoder.dead()) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
  }
  close_reader();
}

void TcpTransport::stop() {
  if (!running_.exchange(false)) return;

  // Unblock the acceptor, then the readers, then drain the writers. The
  // listener fd is closed only after the acceptor has joined, so the blocked
  // accept() is woken by shutdown() and never races a descriptor reuse.
  const int lfd = listen_fd_.exchange(-1, std::memory_order_acq_rel);
  if (lfd >= 0) ::shutdown(lfd, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  if (lfd >= 0) ::close(lfd);

  {
    std::lock_guard<std::mutex> lk(readers_mu_);
    for (int fd : reader_fds_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& t : readers_) {
    if (t.joinable()) t.join();
  }

  for (auto& link : out_) {
    if (!link) continue;
    {
      std::lock_guard<std::mutex> lk(link->mu);
      link->closed = true;
      // A writer stuck in send() on a full socket whose peer is gone must
      // be kicked out, or join() below would hang.
      if (link->fd >= 0) ::shutdown(link->fd, SHUT_RDWR);
    }
    link->cv.notify_all();
    if (link->writer.joinable()) link->writer.join();
  }
}

}  // namespace dr::net
