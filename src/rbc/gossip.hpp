// Sample-based probabilistic reliable broadcast in the spirit of Guerraoui,
// Kuznetsov, Monti, Pavlovič, Seredinschi, "Scalable Byzantine Reliable
// Broadcast" [25] (Murmur dissemination + Sieve echo sampling), providing
// delivery with probability 1-ε at O(n log n) message cost.
//
// Per instance (source, round):
//   dissemination (Murmur): the sender gossips GOSSIP(m) to its gossip
//     sample of size g = O(log n); every process forwards on first receipt.
//   consistency (Sieve): process p has an echo sample E_p of size e; when a
//     process q first receives a candidate payload it sends ECHO(digest) to
//     every p that sampled q. p delivers m once a threshold fraction of E_p
//     echoed m's digest and the payload itself has arrived via gossip.
//
// Simulation note (DESIGN.md §3): samples are derived from the public system
// seed so each process can compute who sampled it without the subscribe
// round of the original protocol. This preserves message complexity and the
// ε-probabilistic delivery behaviour that Table 1's gossip row measures; it
// weakens adaptive-attack resistance, which none of our adversaries exploit.
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "common/round_set.hpp"
#include "common/vote_set.hpp"
#include "crypto/sha256.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

class GossipRbc final : public ReliableBroadcast {
 public:
  GossipRbc(net::Bus& net, ProcessId pid, std::uint64_t system_seed);

  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round r, net::Payload payload) override;

  std::uint32_t gossip_fanout() const { return fanout_; }
  std::uint32_t echo_sample_size() const { return sample_; }

  /// Instances that have received a frame here but not yet r_delivered.
  std::size_t live_instances() const { return instances_.size(); }

 private:
  enum MsgType : std::uint8_t { kGossip = 1, kEcho = 2 };

  struct Instance {
    net::Payload payload;
    bool have_payload = false;
    crypto::Digest payload_digest{};
    std::map<crypto::Digest, VoteSet> echoes;
    bool forwarded = false;
    bool echoed = false;
  };
  using Instances = std::unordered_map<InstanceKey, Instance, InstanceKeyHash>;

  void on_message(ProcessId from, const net::Payload& msg);
  void handle_payload(Instances::iterator it, net::Payload payload);
  void maybe_deliver(Instances::iterator it);
  static std::vector<ProcessId> sample_of(std::uint64_t system_seed,
                                          std::uint32_t n, ProcessId owner,
                                          std::uint32_t size, const char* tag);

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  std::uint32_t fanout_;
  std::uint32_t sample_;
  std::uint32_t echo_needed_;
  std::vector<ProcessId> gossip_targets_;   ///< my gossip sample
  std::vector<ProcessId> echo_sample_;      ///< whose echoes I count
  std::vector<ProcessId> echo_subscribers_; ///< processes that sampled me
  Instances instances_;  ///< erased on r_deliver
  std::vector<RoundSet> delivered_;  ///< indexed by source
};

}  // namespace dr::rbc
