#include "trace.hpp"

#include <atomic>

#include "common.hpp"

namespace perfbench {
namespace {

std::atomic<std::uint64_t> next_log_id{1};

std::uint8_t rbc_type_of(dr::net::Channel ch, const dr::net::Payload& p) {
  return ch == dr::net::Channel::kBracha && !p.empty() ? p.data()[0] : 0;
}

class TracingTransport final : public dr::net::Transport {
 public:
  TracingTransport(std::unique_ptr<dr::net::Transport> inner, SpanLog& log)
      : inner_(std::move(inner)), log_(log) {}

  dr::ProcessId pid() const override { return inner_->pid(); }
  const dr::Committee& committee() const override {
    return inner_->committee();
  }

  void start(RecvFn recv) override {
    inner_->start([this, recv = std::move(recv)](dr::net::Frame f) {
      FrameSpan s;
      s.node = static_cast<std::uint8_t>(pid());
      s.peer = static_cast<std::uint8_t>(f.from);
      s.channel = static_cast<std::uint8_t>(f.channel);
      s.recv = 1;
      s.bytes = static_cast<std::uint32_t>(f.payload.size() +
                                           dr::net::kFrameHeaderBytes);
      s.rbc_type = rbc_type_of(f.channel, f.payload);
      s.start_ns = now_ns();
      recv(std::move(f));
      s.dur_ns = static_cast<std::uint32_t>(now_ns() - s.start_ns);
      log_.record(s);
    });
  }

  void send(dr::ProcessId to, dr::net::Channel channel,
            dr::net::Payload payload) override {
    FrameSpan s;
    s.node = static_cast<std::uint8_t>(pid());
    s.peer = static_cast<std::uint8_t>(to);
    s.channel = static_cast<std::uint8_t>(channel);
    s.bytes = static_cast<std::uint32_t>(payload.size() +
                                         dr::net::kFrameHeaderBytes);
    s.rbc_type = rbc_type_of(channel, payload);
    s.start_ns = now_ns();
    inner_->send(to, channel, std::move(payload));
    s.dur_ns = static_cast<std::uint32_t>(now_ns() - s.start_ns);
    log_.record(s);
  }

  void stop() override { inner_->stop(); }
  std::uint64_t backpressure_overflows() const override {
    return inner_->backpressure_overflows();
  }
  dr::net::TransportCounters counters() const override {
    return inner_->counters();
  }

 private:
  std::unique_ptr<dr::net::Transport> inner_;
  SpanLog& log_;
};

}  // namespace

SpanLog::SpanLog() : id_(next_log_id.fetch_add(1)) {}

void SpanLog::record(const FrameSpan& s) {
  thread_local std::uint64_t owner = 0;
  thread_local std::vector<FrameSpan>* local = nullptr;
  if (owner != id_) {
    auto buf = std::make_unique<std::vector<FrameSpan>>();
    buf->reserve(1 << 16);
    local = buf.get();
    owner = id_;
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(std::move(buf));
  }
  local->push_back(s);
}

std::vector<FrameSpan> SpanLog::collect() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<FrameSpan> out;
  for (const auto& b : buffers_) out.insert(out.end(), b->begin(), b->end());
  return out;
}

std::unique_ptr<dr::net::Transport> make_tracing_transport(
    std::unique_ptr<dr::net::Transport> inner, SpanLog& log) {
  return std::make_unique<TracingTransport>(std::move(inner), log);
}

}  // namespace perfbench
