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
#include <set>
#include <unordered_map>
#include <vector>

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

  /// Key of one broadcast instance.
  struct InstanceKey {
    ProcessId source;
    Round round;
    bool operator==(const InstanceKey& o) const {
      return source == o.source && round == o.round;
    }
  };
  struct InstanceKeyHash {
    std::size_t operator()(const InstanceKey& k) const {
      return std::hash<std::uint64_t>{}(k.round * 0x9E3779B97F4A7C15ULL ^ k.source);
    }
  };

  /// The processes that cast one kind of vote for one payload: a bitmask
  /// with a running count. Word 0 is inline, so committees of up to 64
  /// never allocate; larger ones keep the other words on the heap.
  class VoteSet {
   public:
    /// Records p's vote; a repeated vote is not counted again.
    void add(ProcessId p);
    std::uint32_t count() const { return count_; }

   private:
    std::uint64_t low_ = 0;
    std::vector<std::uint64_t> high_;
    std::uint32_t count_ = 0;
  };

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

  /// Rounds of one source r_delivered here: the tombstones that keep
  /// Integrity once an instance's state is freed. A dense bitmap over
  /// [base_, base_ + 64 * bits_.size()), anchored at the first delivered
  /// round and grown by at most kReachWords words per delivery; a round
  /// farther away (a Byzantine SEND at round 2^40) goes to a sparse set, so
  /// no single delivery allocates more than O(1).
  class DeliveredRounds {
   public:
    bool contains(Round r) const;
    void insert(Round r);

   private:
    static constexpr std::size_t kReachWords = 64;  // 4,096 rounds

    Round base_ = 0;  ///< multiple of 64
    std::vector<std::uint64_t> bits_;
    std::set<Round> far_;
  };

  void on_message(ProcessId from, const net::Payload& msg);
  void maybe_progress(Instances::iterator it, Variant& variant);
  Bytes encode(MsgType type, ProcessId source, Round r, BytesView payload) const;

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  Instances instances_;
  std::vector<DeliveredRounds> delivered_;  ///< indexed by source
};

}  // namespace dr::rbc
