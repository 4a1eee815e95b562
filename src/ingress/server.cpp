#include "ingress/server.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <deque>
#include <utility>

#include "common/rng.hpp"

namespace dr::ingress {

namespace {

/// Per-session bound on queued outbound buffers; beyond it acks are dropped
/// (counted) and a session that can't absorb its own submit replies is
/// closed.
constexpr std::size_t kMaxOutFrames = 1024;
/// poll() timeout: the latency floor for ack flushes when the wake pipe is
/// quiet.
constexpr int kPollIntervalMs = 20;

}  // namespace

std::uint64_t compose_tx_id(std::uint64_t client_id, std::uint64_t tx_id) {
  // splitmix64-style finalizer over the pair: deterministic (resubmits
  // reproduce the digest) and well-spread over the 64-bit id space.
  std::uint64_t x =
      client_id * 0x9E3779B97F4A7C15ull ^ (tx_id + 0xD1B54A32D192ED03ull);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  x ^= x >> 31;
  return x;
}

Bytes client_payload(std::uint64_t client_id, std::uint64_t tx_id,
                     std::size_t bytes) {
  const std::size_t size = std::max<std::size_t>(16, bytes);
  ByteWriter w(size);
  w.u64(client_id);
  w.u64(tx_id);
  SplitMix64 fill(client_id ^ (tx_id * 0x9e3779b97f4a7c15ULL));
  std::size_t remaining = size - 16;
  while (remaining >= 8) {
    w.u64(fill.next());
    remaining -= 8;
  }
  std::uint64_t last = fill.next();
  while (remaining > 0) {
    w.u8(static_cast<std::uint8_t>(last & 0xff));
    last >>= 8;
    --remaining;
  }
  return std::move(w).take();
}

void LatencyHistogram::record(std::uint64_t us) {
  const auto width = static_cast<std::size_t>(std::bit_width(us));
  const std::size_t idx = std::min(width, kBuckets - 1);
  buckets_[idx].fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t LatencyHistogram::total() const {
  std::uint64_t sum = 0;
  for (const auto& b : buckets_) sum += b.load(std::memory_order_relaxed);
  return sum;
}

std::uint64_t LatencyHistogram::percentile_us(double p) const {
  const std::uint64_t n = total();
  if (n == 0) return 0;
  const double clamped = std::clamp(p, 0.0, 1.0);
  const auto target = static_cast<std::uint64_t>(
      std::max(1.0, clamped * static_cast<double>(n)));
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i].load(std::memory_order_relaxed);
    if (seen >= target) {
      // Bucket i holds values with bit_width == i: upper bound 2^i - 1.
      return i == 0 ? 0 : (std::uint64_t{1} << i) - 1;
    }
  }
  return std::uint64_t{1} << (kBuckets - 1);
}

std::uint64_t IngressServer::now_us() {
  const auto d = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

/// Per-client connection state; only the I/O thread touches it.
struct IngressServer::Session {
  int fd = -1;
  std::uint64_t id = 0;  ///< 0 until the hello exchange completes
  bool doomed = false;
  std::array<std::uint8_t, kClientHelloBytes> hello{};
  std::size_t hello_got = 0;
  net::FrameDecoder decoder{0};  ///< n=0: client frames carry no peer id
  std::deque<Bytes> out;
  std::size_t out_offset = 0;  ///< consumed prefix of out.front()
};

IngressServer::IngressServer(Mempool& mempool, ServerOptions opts)
    : mempool_(mempool), opts_(std::move(opts)) {}

IngressServer::~IngressServer() { stop(); }

bool IngressServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;
  listen_fd_ = sock::listen_nonblocking(opts_.host, opts_.port, 1024);
  if (listen_fd_ < 0) return false;
  port_ = sock::local_port(listen_fd_);
  if (!wake_.open_pipe()) {
    sock::close_fd(listen_fd_);
    listen_fd_ = -1;
    return false;
  }
  running_.store(true, std::memory_order_release);
  io_thread_ = std::thread([this] { io_loop(); });
  return true;
}

void IngressServer::stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  wake_.signal();
  if (io_thread_.joinable()) io_thread_.join();
  for (auto& s : sessions_) {
    if (s != nullptr && s->fd >= 0) {
      sock::shutdown_fd(s->fd);
      sock::close_fd(s->fd);
      sessions_closed_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  sessions_.clear();
  by_id_.clear();
  live_sessions_ = 0;
  sock::close_fd(listen_fd_);
  listen_fd_ = -1;
  wake_.close_pipe();
}

void IngressServer::complete(const TxOrigin& origin) {
  const std::uint64_t now = now_us();
  const std::uint64_t latency =
      now > origin.submit_us ? now - origin.submit_us : 0;
  ack_latency_.record(latency);
  acks_enqueued_.fetch_add(1, std::memory_order_relaxed);
  if (!running_.load(std::memory_order_acquire)) return;
  {
    std::lock_guard<std::mutex> lk(acks_mu_);
    pending_acks_.push_back(
        AckEntry{origin.client_id, origin.tx_id, latency});
    pending_ack_sessions_.push_back(origin.session_id);
  }
  wake_.signal();
}

void IngressServer::io_loop() {
  std::vector<pollfd> pfds;
  std::vector<std::size_t> slot_of_pfd;
  while (running_.load(std::memory_order_acquire)) {
    pfds.clear();
    slot_of_pfd.clear();
    const auto kIn = static_cast<short>(POLLIN);
    pfds.push_back(pollfd{wake_.rd, kIn, 0});
    pfds.push_back(pollfd{listen_fd_, kIn, 0});
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      Session* s = sessions_[i].get();
      if (s == nullptr) continue;
      const auto events = static_cast<short>(
          s->out.empty() ? POLLIN : (POLLIN | POLLOUT));
      pfds.push_back(pollfd{s->fd, events, 0});
      slot_of_pfd.push_back(i);
    }
    sock::poll_fds(pfds.data(), pfds.size(), kPollIntervalMs);
    if (!running_.load(std::memory_order_acquire)) break;
    if ((pfds[0].revents & POLLIN) != 0) wake_.drain();
    flush_pending_acks();
    if ((pfds[1].revents & POLLIN) != 0) accept_new_sessions();
    for (std::size_t p = 2; p < pfds.size(); ++p) {
      const std::size_t slot = slot_of_pfd[p - 2];
      Session* s = sessions_[slot].get();
      if (s == nullptr) continue;
      if ((pfds[p].revents & (POLLERR | POLLHUP | POLLNVAL)) != 0) {
        s->doomed = true;
      } else {
        service_session(slot, *s, (pfds[p].revents & POLLIN) != 0,
                        (pfds[p].revents & POLLOUT) != 0);
      }
      if (s->doomed) close_session(slot);
    }
  }
}

void IngressServer::accept_new_sessions() {
  for (;;) {
    const int fd = sock::accept_nonblocking(listen_fd_);
    if (fd < 0) return;
    if (live_sessions_ >= opts_.max_sessions) {
      // Best-effort kFull hello, then close: "try another node".
      const Bytes hello = encode_server_hello(
          ServerHello{kIngressMagic, kIngressVersion, HelloStatus::kFull, 0});
      std::size_t sent = 0;
      sock::send_some(fd, hello.data(), hello.size(), sent);
      sock::close_fd(fd);
      sessions_rejected_full_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    sock::set_nodelay(fd);
    auto session = std::make_unique<Session>();
    session->fd = fd;
    std::size_t slot = sessions_.size();
    for (std::size_t i = 0; i < sessions_.size(); ++i) {
      if (sessions_[i] == nullptr) {
        slot = i;
        break;
      }
    }
    if (slot == sessions_.size()) {
      sessions_.push_back(std::move(session));
    } else {
      sessions_[slot] = std::move(session);
    }
    ++live_sessions_;
    sessions_opened_.fetch_add(1, std::memory_order_relaxed);
  }
}

void IngressServer::service_session(std::size_t slot, Session& s,
                                    bool readable, bool writable) {
  if (readable) {
    std::uint8_t buf[4096];
    for (;;) {
      std::size_t got = 0;
      const sock::Io rc = sock::recv_some(s.fd, buf, sizeof(buf), got);
      if (rc == sock::Io::kWouldBlock) break;
      if (rc == sock::Io::kClosed) {
        s.doomed = true;
        return;
      }
      std::size_t off = 0;
      if (s.id == 0) {
        // Still mid-hello: accumulate the fixed-size client hello first.
        const std::size_t need = kClientHelloBytes - s.hello_got;
        const std::size_t take = std::min(need, got);
        std::copy_n(buf, take, s.hello.data() + s.hello_got);
        s.hello_got += take;
        off = take;
        if (s.hello_got < kClientHelloBytes) continue;
        const auto hello = decode_client_hello(
            BytesView{s.hello.data(), kClientHelloBytes});
        if (!hello.ok()) {
          handshake_failures_.fetch_add(1, std::memory_order_relaxed);
          s.doomed = true;
          return;
        }
        s.id = next_session_id_++;
        by_id_.emplace(s.id, slot);
        if (!queue_bytes(s, encode_server_hello(ServerHello{
                                kIngressMagic, kIngressVersion,
                                HelloStatus::kOk, s.id}),
                         /*droppable=*/false)) {
          return;
        }
      }
      if (off < got) s.decoder.feed(BytesView{buf + off, got - off});
      while (auto frame = s.decoder.next()) {
        handle_message(s, *frame);
        if (s.doomed) return;
      }
      if (s.decoder.dead()) {
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        s.doomed = true;
        return;
      }
    }
  }
  if (writable || !s.out.empty()) flush_out(s);
}

void IngressServer::handle_message(Session& s, const net::Frame& frame) {
  if (frame.channel != net::Channel::kIngress) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    s.doomed = true;
    return;
  }
  const auto msg = decode_ingress_message(frame.payload.view());
  if (!msg.ok() || !msg.value().batch.has_value()) {
    // Malformed, or a server->client message (reply/acks) from a client.
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    s.doomed = true;
    return;
  }
  handle_batch(s, *msg.value().batch);
}

void IngressServer::handle_batch(Session& s, const SubmitBatch& batch) {
  batches_rx_.fetch_add(1, std::memory_order_relaxed);
  txs_rx_.fetch_add(batch.txs.size(), std::memory_order_relaxed);
  const std::uint64_t now = now_us();
  SubmitReply reply;
  reply.client_id = batch.client_id;
  reply.entries.reserve(batch.txs.size());
  for (const TxSubmit& tx : batch.txs) {
    txpool::Transaction t;
    t.id = compose_tx_id(batch.client_id, tx.tx_id);
    t.submit_time = now;
    t.payload = tx.payload;
    const SubmitStatus status = mempool_.submit(
        std::move(t), TxOrigin{s.id, batch.client_id, tx.tx_id, now});
    reply.entries.push_back(ReplyEntry{tx.tx_id, status});
  }
  // A session that can't even absorb its own submit replies is closed
  // (queue_bytes dooms it); clients treat the lost replies as a disconnect.
  queue_bytes(s, net::encode_frame(0, net::Channel::kIngress,
                                   BytesView(encode_submit_reply(reply))),
              /*droppable=*/false);
}

void IngressServer::flush_pending_acks() {
  std::vector<AckEntry> acks;
  std::vector<std::uint64_t> owners;
  {
    std::lock_guard<std::mutex> lk(acks_mu_);
    acks.swap(pending_acks_);
    owners.swap(pending_ack_sessions_);
  }
  if (acks.empty()) return;
  // Group per live session, then ship each group as CommitAcks frames.
  std::unordered_map<std::size_t, CommitAcks> grouped;
  for (std::size_t i = 0; i < acks.size(); ++i) {
    const auto it = by_id_.find(owners[i]);
    if (it == by_id_.end()) {
      acks_orphaned_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    grouped[it->second].acks.push_back(acks[i]);
  }
  for (auto& [slot, group] : grouped) {
    Session* s = sessions_[slot].get();
    if (s == nullptr || s->doomed) {
      acks_orphaned_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    for (std::size_t base = 0; base < group.acks.size();
         base += kMaxAckEntries) {
      CommitAcks chunk;
      const std::size_t end =
          std::min(group.acks.size(), base + kMaxAckEntries);
      chunk.acks.assign(group.acks.begin() + static_cast<std::ptrdiff_t>(base),
                        group.acks.begin() + static_cast<std::ptrdiff_t>(end));
      const std::size_t count = chunk.acks.size();
      if (queue_bytes(*s,
                      net::encode_frame(0, net::Channel::kIngress,
                                        BytesView(encode_commit_acks(chunk))),
                      /*droppable=*/true)) {
        acks_sent_.fetch_add(count, std::memory_order_relaxed);
      } else {
        acks_dropped_.fetch_add(count, std::memory_order_relaxed);
      }
    }
    if (s->doomed) close_session(slot);
  }
}

bool IngressServer::queue_bytes(Session& s, Bytes bytes, bool droppable) {
  if (s.out.size() >= kMaxOutFrames) {
    if (!droppable) s.doomed = true;
    return false;
  }
  s.out.push_back(std::move(bytes));
  flush_out(s);
  return true;
}

void IngressServer::flush_out(Session& s) {
  while (!s.out.empty()) {
    const Bytes& front = s.out.front();
    std::size_t sent = 0;
    const sock::Io rc = sock::send_some(s.fd, front.data() + s.out_offset,
                                        front.size() - s.out_offset, sent);
    if (rc == sock::Io::kClosed) {
      s.doomed = true;
      return;
    }
    s.out_offset += sent;
    if (s.out_offset == front.size()) {
      s.out.pop_front();
      s.out_offset = 0;
      continue;
    }
    if (rc == sock::Io::kWouldBlock) return;  // poll for POLLOUT
  }
}

void IngressServer::close_session(std::size_t idx) {
  Session* s = sessions_[idx].get();
  if (s == nullptr) return;
  if (s->id != 0) by_id_.erase(s->id);
  sock::close_fd(s->fd);
  sessions_[idx].reset();
  --live_sessions_;
  sessions_closed_.fetch_add(1, std::memory_order_relaxed);
}

metrics::Counters IngressServer::counters() const {
  const std::uint64_t opened =
      sessions_opened_.load(std::memory_order_relaxed);
  const std::uint64_t closed =
      sessions_closed_.load(std::memory_order_relaxed);
  metrics::Counters c;
  c.emplace_back("sessions_opened", opened);
  c.emplace_back("sessions_closed", closed);
  c.emplace_back("sessions_open", opened - closed);
  c.emplace_back("sessions_rejected_full",
                 sessions_rejected_full_.load(std::memory_order_relaxed));
  c.emplace_back("handshake_failures",
                 handshake_failures_.load(std::memory_order_relaxed));
  c.emplace_back("protocol_errors",
                 protocol_errors_.load(std::memory_order_relaxed));
  c.emplace_back("batches_rx", batches_rx_.load(std::memory_order_relaxed));
  c.emplace_back("txs_rx", txs_rx_.load(std::memory_order_relaxed));
  c.emplace_back("acks_enqueued",
                 acks_enqueued_.load(std::memory_order_relaxed));
  c.emplace_back("acks_sent", acks_sent_.load(std::memory_order_relaxed));
  c.emplace_back("acks_dropped",
                 acks_dropped_.load(std::memory_order_relaxed));
  c.emplace_back("acks_orphaned",
                 acks_orphaned_.load(std::memory_order_relaxed));
  c.emplace_back("ack_p50_us", ack_latency_.percentile_us(0.50));
  c.emplace_back("ack_p99_us", ack_latency_.percentile_us(0.99));
  return c;
}

}  // namespace dr::ingress
