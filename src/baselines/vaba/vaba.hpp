// VABA — Validated Asynchronous Byzantine Agreement after Abraham, Malkhi,
// Spiegelman (PODC'19) — the O(n^2)-per-decision baseline of Table 1.
//
// Structure per (slot, view):
//  1. Proposal promotion: every process promotes its value through four
//     sequential provable-broadcast steps (STEP k carries the value; 2f+1
//     ACKs unlock step k+1). Step 2 yields a "key", step 3 a "lock", step 4
//     a "commit" proof.
//  2. After completing step 4 a proposer broadcasts DONE. On 2f+1 DONEs a
//     process abandons the view (stops acking) and asks the coin for the
//     view's leader — elected retroactively, like DAG-Rider's waves.
//  3. View-change: everyone reports the leader's highest promotion step it
//     witnessed. On 2f+1 reports: step 4 seen -> decide the leader's value;
//     step >= 2 seen -> adopt it for the next view; else keep own value.
//
// Simulation note (DESIGN.md §3): ack/proof aggregation is modelled by
// counting ACK messages instead of verifying aggregate signatures, and a
// DECIDE short-circuit message replaces the commit-proof gossip. Message
// and bit complexity per view are the paper's O(n^2); the crash-fault +
// adversarial-delay experiments exercise exactly this cost model.
#pragma once

#include <functional>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "coin/coin.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "sim/network.hpp"

namespace dr::baselines {

class Vaba {
 public:
  /// decide(slot, proposer-whose-value-won, value).
  using DecideFn =
      std::function<void(SlotId slot, ProcessId proposer, const Bytes& value)>;

  Vaba(sim::Network& net, ProcessId pid, coin::Coin& coin, DecideFn decide,
       sim::Channel channel = sim::Channel::kVaba);

  /// Proposes this process's value for `slot` (starts view 1).
  void propose(SlotId slot, Bytes value);

  bool decided(SlotId slot) const;
  /// Views consumed for a decided slot (1 = first view committed).
  std::uint64_t views_used(SlotId slot) const;

 private:
  static constexpr std::uint32_t kSteps = 4;
  enum MsgType : std::uint8_t {
    kStep = 1,
    kAck = 2,
    kDone = 3,
    kViewChange = 4,
    kDecide = 5,
  };

  struct Promotion {
    std::uint32_t max_step = 0;
    Bytes value;
  };

  struct ViewState {
    // This process as proposer:
    std::uint32_t my_step = 0;  // highest step broadcast
    std::vector<std::unordered_set<ProcessId>> acks{kSteps + 1};
    bool done_sent = false;
    // This process as participant:
    std::unordered_map<ProcessId, Promotion> promotions;
    std::unordered_set<ProcessId> dones;
    bool abandoned = false;
    bool coin_requested = false;
    std::optional<ProcessId> leader;
    std::unordered_set<ProcessId> vc_senders;
    std::uint32_t vc_max_step = 0;
    Bytes vc_value;
    /// View-change reports that arrived before the local coin resolved.
    std::vector<std::pair<ProcessId, Bytes>> pending_vc;
  };

  struct SlotState {
    Bytes my_value;
    bool proposing = false;
    std::uint64_t view = 1;
    std::map<std::uint64_t, ViewState> views;
    bool decided = false;
    std::uint64_t decided_view = 0;
  };

  void on_message(ProcessId from, BytesView data);
  void handle_step(SlotId slot, std::uint64_t view, ProcessId from,
                   std::uint32_t step, Bytes value);
  void handle_ack(SlotId slot, std::uint64_t view, ProcessId from,
                  std::uint32_t step);
  void handle_done(SlotId slot, std::uint64_t view, ProcessId from);
  void handle_view_change(SlotId slot, std::uint64_t view, ProcessId from,
                          BytesView body);
  void handle_decide(SlotId slot, ProcessId proposer, Bytes value);

  void broadcast_step(SlotId slot, std::uint64_t view, std::uint32_t step);
  void maybe_abandon(SlotId slot, std::uint64_t view);
  void on_coin(SlotId slot, std::uint64_t view, ProcessId leader);
  void process_vc(SlotId slot, std::uint64_t view, ProcessId from, BytesView body);
  void maybe_finish_view(SlotId slot, std::uint64_t view);
  void enter_view(SlotId slot, std::uint64_t view);

  /// Coin instance id for (slot, view) — disjoint from every other consumer
  /// of the shared coin by domain-tagged hashing.
  static std::uint64_t coin_instance(SlotId slot, std::uint64_t view);

  sim::Network& net_;
  ProcessId pid_;
  coin::Coin& coin_;
  DecideFn decide_;
  sim::Channel channel_;
  std::map<SlotId, SlotState> slots_;
};

}  // namespace dr::baselines
