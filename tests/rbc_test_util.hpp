// Shared fixture for reliable-broadcast property tests: n instances of one
// RBC implementation on a simulated network, with per-process delivery logs.
#pragma once

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "rbc/factory.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace dr::rbc::testing {

struct DeliveryLog {
  struct Entry {
    ProcessId source;
    Round round;
    Bytes payload;
  };
  std::vector<Entry> entries;

  const Entry* find(ProcessId source, Round round) const {
    for (const Entry& e : entries) {
      if (e.source == source && e.round == round) return &e;
    }
    return nullptr;
  }
  int count(ProcessId source, Round round) const {
    int c = 0;
    for (const Entry& e : entries) {
      c += (e.source == source && e.round == round) ? 1 : 0;
    }
    return c;
  }
};

/// The bus the harness's instances send through: it forwards every call to
/// the simulated network unchanged and, while recording, keeps each frame
/// sent (one per destination), so a test can replay them later.
class TapBus final : public net::Bus {
 public:
  struct Sent {
    ProcessId from;
    ProcessId to;
    net::Channel channel;
    net::Payload payload;
  };

  explicit TapBus(sim::Network& net) : net_(net) {}

  const Committee& committee() const override { return net_.committee(); }
  void subscribe(ProcessId pid, net::Channel channel, Handler handler) override {
    net_.subscribe(pid, channel, std::move(handler));
  }
  void send(ProcessId from, ProcessId to, net::Channel channel,
            net::Payload payload) override {
    if (recording_) sent_.push_back({from, to, channel, payload});
    net_.send(from, to, channel, std::move(payload));
  }
  void broadcast(ProcessId from, net::Channel channel,
                 net::Payload payload) override {
    for (ProcessId to = 0; recording_ && to < n(); ++to) {
      sent_.push_back({from, to, channel, payload});
    }
    net_.broadcast(from, channel, std::move(payload));
  }

  void record(bool on) { recording_ = on; }
  const std::vector<Sent>& sent() const { return sent_; }

 private:
  sim::Network& net_;
  bool recording_ = false;
  std::vector<Sent> sent_;
};

class RbcHarness {
 public:
  RbcHarness(Committee committee, RbcKind kind, std::uint64_t seed,
             sim::SimTime max_delay = 50)
      : committee_(committee),
        sim_(seed),
        net_(sim_, committee, std::make_unique<sim::UniformDelay>(1, max_delay)),
        tap_(net_) {
    const RbcFactory factory = make_factory(kind);
    logs_.resize(committee.n);
    for (ProcessId p = 0; p < committee.n; ++p) {
      instances_.push_back(factory(tap_, p, seed));
      instances_.back()->set_deliver(
          [this, p](ProcessId source, Round r, net::Payload payload) {
            logs_[p].entries.push_back({source, r, payload.to_bytes()});
          });
    }
  }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return net_; }
  TapBus& tap() { return tap_; }
  ReliableBroadcast& instance(ProcessId p) { return *instances_[p]; }
  const DeliveryLog& log(ProcessId p) const { return logs_[p]; }
  const Committee& committee() const { return committee_; }

  /// All processes the harness did not crash/corrupt.
  std::vector<ProcessId> correct_ids() const {
    std::vector<ProcessId> out;
    for (ProcessId p = 0; p < committee_.n; ++p) {
      if (!net_.is_corrupted(p)) out.push_back(p);
    }
    return out;
  }

 private:
  Committee committee_;
  sim::Simulator sim_;
  sim::Network net_;
  TapBus tap_;
  std::vector<std::unique_ptr<ReliableBroadcast>> instances_;
  std::vector<DeliveryLog> logs_;
};

}  // namespace dr::rbc::testing
