// Bracha reliable broadcast with the hash-echo optimization: ECHO and READY
// carry a 32-byte digest instead of the full payload, cutting the dominant
// O(n^2 |m|) term of classic Bracha to O(n |m| + n^2 * 32) per broadcast.
//
// Totality needs one extra mechanism: a process can collect 2f+1 READYs
// without ever receiving the payload (a Byzantine sender may have SENDed to
// a subset). Since a correct READY chain starts from 2f+1 ECHOes and
// correct processes only ECHO after holding the payload, at least f+1
// correct processes hold it; the lacking process PULLs it from the echoers
// and verifies against the digest. No timers needed: pulls go to every
// known holder at once, first digest-matching response wins.
//
// Per instance (source, round):
//   sender:            SEND(m) to all
//   on SEND:           ECHO(H(m)) to all                        (once)
//   on 2f+1 ECHO(d):   READY(d) to all                          (once)
//   on  f+1 READY(d):  READY(d) to all                          (once)
//   on 2f+1 READY(d):  deliver if payload held, else FETCH(d) from holders
//   on FETCH(d):       PAYLOAD(m) back to the requester if held
//   on PAYLOAD(m):     deliver if H(m)=d and the READY quorum is in
#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/vote_set.hpp"
#include "crypto/sha256.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

class BrachaHashRbc final : public ReliableBroadcast {
 public:
  BrachaHashRbc(net::Bus& net, ProcessId pid);

  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round r, net::Payload payload) override;

 private:
  enum MsgType : std::uint8_t {
    kSend = 1,
    kEcho = 2,
    kReady = 3,
    kFetch = 4,
    kPayload = 5,
  };

  struct PerDigest {
    /// A set, not a VoteSet: maybe_progress sends FETCH in this set's
    /// iteration order.
    std::unordered_set<ProcessId> echoes;
    VoteSet readies;
    /// Holders already asked for the payload. Pulls are incremental: an
    /// echo arriving after the READY quorum still triggers a fetch, so a
    /// quorum reached before any echo cannot strand the instance.
    VoteSet fetched_from;
  };

  struct Instance {
    std::map<crypto::Digest, PerDigest> by_digest;
    net::Payload payload;  ///< window into the SEND/PAYLOAD message it rode in
    bool have_payload = false;
    crypto::Digest payload_digest{};
    bool echoed = false;
    bool readied = false;
    bool delivered = false;
  };

  void on_message(ProcessId from, const net::Payload& msg);
  void maybe_progress(const InstanceKey& key, const crypto::Digest& digest);
  Bytes header(MsgType type, ProcessId source, Round r) const;

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  /// Delivered instances stay: after delivering through the pull path this
  /// process must still answer FETCH and echo a late SEND.
  std::unordered_map<InstanceKey, Instance, InstanceKeyHash> instances_;
};

}  // namespace dr::rbc
