// Distributed (f+1)-of-n threshold coin over the simulated network.
// choose_leader(w) broadcasts this process's share for instance w; once f+1
// valid shares for w are collected (from broadcasts of any processes), the
// secret is Lagrange-reconstructed and hashed into a leader id.
//
// Properties (matching §2 of the paper):
//  * Agreement  — all correct processes reconstruct the same secret: shares
//    of a degree-f polynomial determine it uniquely, and invalid shares are
//    rejected by the verifier.
//  * Termination — once f+1 correct processes call choose_leader(w), f+1
//    valid shares reach everyone (reliable links), so every call returns.
//  * Unpredictability — below f+1 revealed shares the secret is information-
//    theoretically undetermined.
//  * Fairness — the secret is PRF-uniform; leader = H(secret, w) mod n.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "coin/coin.hpp"
#include "coin/dealer.hpp"
#include "net/bus.hpp"

namespace dr::coin {

class ThresholdCoin final : public Coin {
 public:
  /// If broadcast_shares is false, choose_leader does not send the share on
  /// the coin channel — the caller must disseminate shares out-of-band
  /// (piggybacked on DAG vertices, paper footnote 1) via ingest_share.
  ThresholdCoin(net::Bus& net, ProcessCoinKey key, bool broadcast_shares = true);

  void choose_leader(Wave w, std::function<void(ProcessId)> cb) override;

  /// True once this process has reconstructed instance w.
  bool has_value(Wave w) const;

  /// Feeds a share that arrived out-of-band (e.g. piggybacked on a DAG
  /// vertex instead of the coin channel). Same validation path.
  void ingest_share(ProcessId from, Wave w, std::uint64_t y);

  /// Share for instance w to embed in an outgoing vertex (piggyback mode).
  std::uint64_t share_to_embed(Wave w) const { return key_.my_share(w).y; }

 private:
  struct Instance {
    std::map<std::uint64_t, std::uint64_t> shares;  // x -> y, valid only
    std::optional<ProcessId> leader;
    std::vector<std::function<void(ProcessId)>> waiting;
    bool share_sent = false;
  };

  void on_message(ProcessId from, BytesView payload);
  void try_reconstruct(Wave w, Instance& inst);

  net::Bus& net_;
  ProcessCoinKey key_;
  bool broadcast_shares_;
  std::map<Wave, Instance> instances_;
};

}  // namespace dr::coin
