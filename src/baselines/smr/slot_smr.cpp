#include "baselines/smr/slot_smr.hpp"

#include "common/assert.hpp"
#include "common/rng.hpp"

namespace dr::baselines {

SlotSmrNode::SlotSmrNode(sim::Network& net, ProcessId pid, coin::Coin& coin,
                         SmrBackend backend, std::size_t batch_size,
                         std::uint64_t seed, sim::Simulator& sim)
    : net_(net),
      pid_(pid),
      sim_(sim),
      batch_size_(batch_size),
      seed_(seed) {
  auto decide = [this](SlotId slot, ProcessId proposer, const Bytes& value) {
    on_decide(slot, proposer, value);
  };
  if (backend == SmrBackend::kVaba) {
    vaba_ = std::make_unique<Vaba>(net, pid, coin, decide);
  } else {
    dumbo_ = std::make_unique<DumboMvba>(net, pid, coin, decide);
  }
}

Bytes SlotSmrNode::batch_for(SlotId slot) const {
  Bytes batch(batch_size_);
  Xoshiro256 rng(seed_ ^ (static_cast<std::uint64_t>(pid_) << 40) ^ slot);
  for (auto& b : batch) b = static_cast<std::uint8_t>(rng());
  return batch;
}

void SlotSmrNode::start() {
  DR_ASSERT(!started_);
  started_ = true;
  propose_pending();
}

void SlotSmrNode::propose_pending() {
  // Up to n slots in flight: the paper's "up to n slots concurrently".
  while (next_to_propose_ < next_to_output_ + net_.n()) {
    const SlotId slot = next_to_propose_++;
    if (vaba_) {
      vaba_->propose(slot, batch_for(slot));
    } else {
      dumbo_->propose(slot, batch_for(slot));
    }
  }
}

void SlotSmrNode::on_decide(SlotId slot, ProcessId proposer, const Bytes& value) {
  if (decided_.count(slot) > 0) return;
  Output out;
  out.slot = slot;
  out.proposer = proposer;
  out.batch_digest = crypto::sha256(value);
  out.batch_size = value.size();
  decided_.emplace(slot, out);
  drain_in_order();
}

void SlotSmrNode::drain_in_order() {
  // The execution constraint of the paper's comparison: slot decisions are
  // emitted strictly in order, so one slow slot gates all later ones.
  bool advanced = false;
  while (true) {
    auto it = decided_.find(next_to_output_);
    if (it == decided_.end()) break;
    it->second.time = sim_.now();
    outputs_.push_back(it->second);
    decided_.erase(it);
    ++next_to_output_;
    advanced = true;
  }
  if (advanced && started_) propose_pending();
}

SmrSystem::SmrSystem(SmrSystemConfig cfg) : cfg_(std::move(cfg)), sim_(cfg_.seed) {
  DR_ASSERT_MSG(cfg_.committee.valid(), "SmrSystem: n > 3f required");
  if (!cfg_.delays) cfg_.delays = std::make_unique<sim::UniformDelay>(1, 100);
  net_ = std::make_unique<sim::Network>(sim_, cfg_.committee,
                                        std::move(cfg_.delays));
  dealer_ = std::make_unique<coin::CoinDealer>(cfg_.seed ^ 0xDEA1ULL,
                                               cfg_.committee);
  for (ProcessId pid : cfg_.crashed) net_->crash(pid);
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    coins_.push_back(std::make_unique<coin::ThresholdCoin>(
        *net_, coin::ProcessCoinKey(dealer_.get(), pid)));
    nodes_.push_back(std::make_unique<SlotSmrNode>(
        *net_, pid, *coins_.back(), cfg_.backend, cfg_.batch_size, cfg_.seed,
        sim_));
  }
}

SmrSystem::~SmrSystem() = default;

void SmrSystem::start() {
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (!net_->is_crashed(pid)) nodes_[pid]->start();
  }
}

std::vector<ProcessId> SmrSystem::correct_ids() const {
  std::vector<ProcessId> out;
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (is_correct(pid)) out.push_back(pid);
  }
  return out;
}

bool SmrSystem::run_until_output(std::uint64_t count, std::uint64_t max_events) {
  return sim_.run_until(
      [this, count] {
        for (ProcessId pid : correct_ids()) {
          if (nodes_[pid]->slots_output() < count) return false;
        }
        return true;
      },
      max_events);
}

}  // namespace dr::baselines
