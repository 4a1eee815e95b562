// Classic Bracha reliable broadcast [11]. Per instance (source, round):
//   sender:            SEND(m) to all
//   on SEND:           ECHO(m) to all                    (once)
//   on 2f+1 ECHO(m):   READY(m) to all                   (once)
//   on  f+1 READY(m):  READY(m) to all                   (once, amplification)
//   on 2f+1 READY(m):  r_deliver(m)
// Echoes and readies are counted per payload digest, so an equivocating
// sender splits its quorum and no conflicting deliveries can occur.
//
// Each frame costs O(1): the instances not yet delivered live in a hash
// table keyed by (source, round), and r_deliver erases the instance, leaving
// a one-bit tombstone per (source, round) that drops every later frame of
// that instance before any other work (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/round_set.hpp"
#include "common/vote_set.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

class BrachaRbc final : public ReliableBroadcast {
 public:
  BrachaRbc(net::Bus& net, ProcessId pid);

  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round r, net::Payload payload) override;

  /// Instances that have received a frame here but not yet r_delivered.
  /// Bounded by the broadcasts in flight, not by the length of the run.
  std::size_t live_instances() const { return instances_.size(); }

 private:
  enum MsgType : std::uint8_t { kSend = 1, kEcho = 2, kReady = 3 };

  /// One payload seen for an instance. A correct sender yields exactly one;
  /// an equivocating one yields one per variant it sent.
  struct Variant {
    net::Payload payload;  ///< window into the first carrying message seen
    VoteSet echoes;
    VoteSet readies;
  };

  struct Instance {
    std::vector<Variant> variants;
    bool echoed = false;
    bool readied = false;
  };
  using Instances = std::unordered_map<InstanceKey, Instance, InstanceKeyHash>;

  void on_message(ProcessId from, const net::Payload& msg);
  void maybe_progress(Instances::iterator it, Variant& variant);
  Bytes encode(MsgType type, ProcessId source, Round r, BytesView payload) const;

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  Instances instances_;
  std::vector<RoundSet> delivered_;  ///< tombstones, indexed by source
};

}  // namespace dr::rbc
