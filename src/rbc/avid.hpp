// AVID-style reliable broadcast after Cachin–Tessaro [14]: the sender
// disperses Reed–Solomon fragments committed by a Merkle root, processes
// echo only their own fragment, and a Bracha-style READY round on the root
// makes delivery total. Per broadcast of |m| bytes the bit cost is
// O(n |m| + n^2 log n) instead of Bracha's O(n^2 |m|).
//
// Per instance (source, round):
//   sender:   RS-encode m into n fragments (k = f+1 data shards), build
//             Merkle tree; send DISPERSE(root, frag_i, proof_i) to each p_i.
//   on DISPERSE with valid proof:  ECHO(root, frag_i, proof_i) to all (once).
//   on 2f+1 ECHO for one root:     reconstruct m from any f+1 fragments,
//             re-encode, recompute the Merkle root; if it matches, the
//             sender's encoding was consistent -> READY(root) to all.
//             (A mismatch proves a Byzantine sender; the instance is dead —
//             no correct process will ever deliver it, which is allowed.)
//   on  f+1 READY(root):           READY(root) to all (amplification).
//   on 2f+1 READY(root) and m reconstructed:  r_deliver(m).
// Totality: f+1 correct processes must have echoed valid fragments for any
// root to collect 2f+1 READYs, and their echoes reach everyone, giving the
// k = f+1 fragments needed to reconstruct.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/round_set.hpp"
#include "common/vote_set.hpp"
#include "crypto/merkle.hpp"
#include "crypto/reed_solomon.hpp"
#include "crypto/sha256.hpp"
#include "rbc/rbc.hpp"

namespace dr::rbc {

class AvidRbc final : public ReliableBroadcast {
 public:
  AvidRbc(net::Bus& net, ProcessId pid);

  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round r, net::Payload payload) override;

  /// Instances that have received a frame here but not yet r_delivered.
  std::size_t live_instances() const { return instances_.size(); }

 private:
  enum MsgType : std::uint8_t { kDisperse = 1, kEcho = 2, kReady = 3 };

  struct PerRoot {
    std::map<std::uint32_t, Bytes> fragments;      // fragment index -> bytes
    VoteSet echo_senders;
    VoteSet ready_senders;
    std::optional<Bytes> reconstructed;
    bool encoding_checked = false;
    bool encoding_ok = false;
  };

  struct Instance {
    std::map<crypto::Digest, PerRoot> by_root;
    bool echoed = false;
    bool readied = false;
  };
  using Instances = std::unordered_map<InstanceKey, Instance, InstanceKeyHash>;

  void on_message(ProcessId from, BytesView data);
  void maybe_progress(Instances::iterator it, const crypto::Digest& root);
  /// Tries to rebuild the payload and verify the sender's encoding against
  /// the Merkle root. Returns true iff the payload is available and valid.
  bool ensure_payload(PerRoot& pr, const crypto::Digest& root);

  net::Bus& net_;
  ProcessId pid_;
  DeliverFn deliver_;
  crypto::ReedSolomon rs_;
  Instances instances_;  ///< erased on r_deliver
  std::vector<RoundSet> delivered_;  ///< indexed by source
};

}  // namespace dr::rbc
