// Idealized reliable broadcast realized by simulator fiat: one message per
// recipient, delivered after network delay, with agreement/validity enforced
// by construction (even a Byzantine *sender* cannot equivocate because the
// payload is sent once through a shared trusted path).
//
// Used to unit-test the DAG and ordering layers, and to run the simulator
// benches that measure ordering rather than broadcast cost, in isolation
// from any real broadcast protocol (exactly n payload copies per broadcast).
#pragma once

#include <vector>

#include "common/round_set.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

class OracleRbc final : public ReliableBroadcast {
 public:
  OracleRbc(net::Bus& net, ProcessId pid);

  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round r, net::Payload payload) override;

 private:
  void on_message(ProcessId from, const net::Payload& msg);

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  std::vector<RoundSet> delivered_;  ///< Integrity guard, indexed by source
};

}  // namespace dr::rbc
