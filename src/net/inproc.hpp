// In-process transport: n endpoints in one OS process, one per node thread,
// exchanging frames through direct handoff into each receiver's inbox (the
// receive hook). No serialization, no syscalls — this is the "as fast as
// the hardware allows" configuration, and the one the auditor cross-check
// tests run under sanitizers. A handoff carries a whole per-peer batch
// (send_batch): one lock on the peer and one receive-hook call for all its
// frames; send() is the one-frame case. Backpressure comes from the
// receiving node's bounded inbox: a sender blocks inside the receiver's
// recv hook until the consumer drains (see net::Inbox for the
// deadlock-freedom escape hatch).
#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>

#include "net/transport.hpp"

namespace dr::net {

class InProcNetwork {
 public:
  explicit InProcNetwork(Committee committee);

  const Committee& committee() const { return shared_->committee; }

  /// Creates the endpoint for `pid`. At most one endpoint per pid may be
  /// live at a time, but a pid whose previous endpoint has been stopped and
  /// destroyed may be re-created — that is how Cluster::restart_node crashes
  /// and revives a node on the same simulated network. Endpoints keep the
  /// shared registry alive, so the network object itself may be destroyed
  /// first.
  std::unique_ptr<Transport> endpoint(ProcessId pid);

 private:
  friend class InProcEndpoint;
  struct Peer {
    Transport::BatchRecvFn recv;  ///< guarded by mu
    /// Serializes delivery against start/stop: senders hold it shared while
    /// inside recv, so stop() (exclusive) cannot return — and the endpoint's
    /// owner cannot destroy the receiving node — while a delivery is still
    /// running in another thread.
    std::shared_mutex mu;
    std::atomic<bool> ready{false};
    /// Set on first start and never cleared. A send to a not-ready peer that
    /// was ever up drops immediately (the peer crashed or is restarting —
    /// stalling the sender would stall its whole node loop); a send to a
    /// never-yet-started peer tolerates startup skew by briefly waiting.
    std::atomic<bool> ever_ready{false};
  };
  struct Shared {
    Committee committee;
    std::vector<Peer> peers;
  };
  std::shared_ptr<Shared> shared_;
};

}  // namespace dr::net
