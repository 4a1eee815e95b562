#include "net/inproc.hpp"

#include <chrono>
#include <mutex>
#include <thread>

#include "common/assert.hpp"

namespace dr::net {

class InProcEndpoint final : public Transport {
 public:
  InProcEndpoint(std::shared_ptr<InProcNetwork::Shared> shared, ProcessId pid)
      : shared_(std::move(shared)), pid_(pid) {}

  ~InProcEndpoint() override { stop(); }

  ProcessId pid() const override { return pid_; }
  const Committee& committee() const override { return shared_->committee; }

  void start(RecvFn recv) override {
    start_batched([recv = std::move(recv)](std::vector<Frame>& frames) {
      for (Frame& f : frames) recv(std::move(f));
    });
  }

  void start_batched(BatchRecvFn recv) override {
    InProcNetwork::Peer& me = shared_->peers[pid_];
    std::unique_lock lock(me.mu);
    me.recv = std::move(recv);
    me.ever_ready.store(true, std::memory_order_release);
    me.ready.store(true, std::memory_order_release);
  }

  void send(ProcessId to, Channel channel, Payload payload) override {
    std::vector<Frame> one;
    one.push_back(Frame{pid_, channel, std::move(payload)});
    send_batch(to, one);
  }

  void send_batch(ProcessId to, std::vector<Frame>& frames) override {
    DR_ASSERT(to < shared_->committee.n);
    if (frames.empty()) return;
    deliver(shared_->peers[to], frames);
    frames.clear();  // dropped, or already moved into the receiver
  }

  void stop() override {
    InProcNetwork::Peer& me = shared_->peers[pid_];
    me.ready.store(false, std::memory_order_release);
    // Exclusive acquisition drains in-flight deliveries before the recv hook
    // (which captures the node being destroyed) is released.
    std::unique_lock lock(me.mu);
    me.recv = nullptr;
  }

 private:
  void deliver(InProcNetwork::Peer& peer, std::vector<Frame>& frames) {
    if (!peer.ready.load(std::memory_order_acquire)) {
      if (peer.ever_ready.load(std::memory_order_acquire)) {
        // The peer was up and went down (crash / restart window): drop, as a
        // real network would. Waiting here would stall the sending node's
        // whole protocol loop on a peer that may never return.
        return;
      }
      // The hosting harness starts every endpoint before any protocol
      // traffic flows; tolerate a short startup skew, then drop (the peer
      // never came up).
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(5);
      while (!peer.ready.load(std::memory_order_acquire)) {
        if (std::chrono::steady_clock::now() > deadline) return;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    // The link authenticates the sender: whatever the frames say, they come
    // from this endpoint.
    for (Frame& f : frames) f.from = pid_;
    // Shared lock for the duration of the delivery: a concurrent stop()
    // takes the exclusive side and therefore cannot complete — nor can the
    // receiving node be torn down — while we are inside its recv hook.
    std::shared_lock lock(peer.mu);
    if (!peer.ready.load(std::memory_order_acquire)) return;  // lost the race
    peer.recv(frames);
  }

  std::shared_ptr<InProcNetwork::Shared> shared_;
  ProcessId pid_;
};

InProcNetwork::InProcNetwork(Committee committee)
    : shared_(std::make_shared<Shared>()) {
  DR_ASSERT_MSG(committee.valid(), "InProcNetwork: committee must satisfy n > 3f");
  shared_->committee = committee;
  shared_->peers = std::vector<Peer>(committee.n);
}

std::unique_ptr<Transport> InProcNetwork::endpoint(ProcessId pid) {
  DR_ASSERT(pid < shared_->committee.n);
  return std::make_unique<InProcEndpoint>(shared_, pid);
}

}  // namespace dr::net
