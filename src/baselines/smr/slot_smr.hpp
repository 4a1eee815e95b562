// Slot-parallel SMR driver over VABA or Dumbo-MVBA — the "VABA SMR" and
// "Dumbo SMR" rows of Table 1. An unbounded sequence of slots is agreed on
// independently; up to n slots run concurrently (the paper's comparison),
// but outputs must be emitted in slot order with no gaps — which is
// precisely what makes the time complexity O(log n) per n outputs (Ben-Or &
// El-Yaniv: max of n geometric latencies).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "baselines/dumbo/dumbo.hpp"
#include "baselines/vaba/vaba.hpp"
#include "coin/dealer.hpp"
#include "coin/threshold_coin.hpp"
#include "crypto/sha256.hpp"
#include "sim/adversary.hpp"
#include "sim/simulator.hpp"

namespace dr::baselines {

enum class SmrBackend { kVaba, kDumbo };

inline const char* to_string(SmrBackend b) {
  return b == SmrBackend::kVaba ? "vaba-smr" : "dumbo-smr";
}

class SlotSmrNode {
 public:
  struct Output {
    SlotId slot = 0;
    ProcessId proposer = 0;       ///< whose batch won the slot
    crypto::Digest batch_digest{};
    std::size_t batch_size = 0;
    sim::SimTime time = 0;        ///< when emitted in-order (not when decided)
  };

  SlotSmrNode(sim::Network& net, ProcessId pid, coin::Coin& coin,
              SmrBackend backend, std::size_t batch_size, std::uint64_t seed,
              sim::Simulator& sim);

  void start();

  /// In-order emitted outputs (slot 1, 2, 3, ... with no gaps).
  const std::vector<Output>& outputs() const { return outputs_; }
  std::uint64_t slots_output() const { return outputs_.size(); }

  /// This process's batch for a slot — deterministic, unique per (pid, slot).
  Bytes batch_for(SlotId slot) const;

 private:
  void propose_pending();
  void on_decide(SlotId slot, ProcessId proposer, const Bytes& value);
  void drain_in_order();

  sim::Network& net_;
  ProcessId pid_;
  sim::Simulator& sim_;
  std::size_t batch_size_;
  std::uint64_t seed_;
  std::unique_ptr<Vaba> vaba_;        // backend kVaba
  std::unique_ptr<DumboMvba> dumbo_;  // backend kDumbo
  SlotId next_to_propose_ = 1;
  SlotId next_to_output_ = 1;
  std::map<SlotId, Output> decided_;
  std::vector<Output> outputs_;
  bool started_ = false;
};

/// Harness mirroring core::System for the baseline SMRs.
struct SmrSystemConfig {
  Committee committee = Committee::for_f(1);
  std::uint64_t seed = 1;
  SmrBackend backend = SmrBackend::kVaba;
  std::size_t batch_size = 64;
  std::unique_ptr<sim::DelayModel> delays;  ///< nullptr -> UniformDelay(1, 100)
  std::vector<ProcessId> crashed;
};

class SmrSystem {
 public:
  explicit SmrSystem(SmrSystemConfig cfg);
  ~SmrSystem();

  void start();
  sim::Simulator& simulator() { return sim_; }
  sim::Network& network() { return *net_; }
  SlotSmrNode& node(ProcessId pid) { return *nodes_[pid]; }
  const SlotSmrNode& node(ProcessId pid) const { return *nodes_[pid]; }
  bool is_correct(ProcessId pid) const { return !net_->is_corrupted(pid); }
  std::vector<ProcessId> correct_ids() const;

  /// Runs until every correct process emitted >= count in-order outputs.
  bool run_until_output(std::uint64_t count, std::uint64_t max_events = 100'000'000);

 private:
  SmrSystemConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::unique_ptr<coin::CoinDealer> dealer_;
  std::vector<std::unique_ptr<coin::ThresholdCoin>> coins_;
  std::vector<std::unique_ptr<SlotSmrNode>> nodes_;
};

}  // namespace dr::baselines
