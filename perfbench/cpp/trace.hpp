// Tracing for the benchmark's traced runs: a net::Transport decorator that
// records one span per send() and per receive callback, tagged by channel,
// into per-thread in-memory buffers that are collected after the cluster
// has stopped. Installed through ClusterTweaks::transport_wrap, so the
// program itself is unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "net/transport.hpp"

namespace perfbench {

struct FrameSpan {
  std::uint64_t start_ns = 0;
  std::uint32_t dur_ns = 0;
  std::uint32_t bytes = 0;  ///< payload plus the 12-byte frame header
  std::uint8_t node = 0;    ///< endpoint the decorator wraps
  std::uint8_t peer = 0;    ///< destination (send) or sender (recv)
  std::uint8_t channel = 0;
  std::uint8_t recv = 0;    ///< 0 = send(), 1 = receive callback
  std::uint8_t rbc_type = 0;  ///< Bracha message type byte, 0 elsewhere
};

/// Span store shared by all decorators of one run. record() is callable
/// from any thread; collect() only once every recording thread has ended
/// or been joined.
class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  void record(const FrameSpan& s);
  std::vector<FrameSpan> collect() const;

 private:
  std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<FrameSpan>>> buffers_;
};

std::unique_ptr<dr::net::Transport> make_tracing_transport(
    std::unique_ptr<dr::net::Transport> inner, SpanLog& log);

}  // namespace perfbench
