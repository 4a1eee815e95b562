#include "app/replicated.hpp"

#include "common/assert.hpp"

namespace dr::app {

namespace {

/// Proposal pacing interval (ticks): each correct replica tops up its
/// builder's block queue this often.
constexpr sim::SimTime kPumpEvery = 50;

}  // namespace

ReplicatedService::ReplicatedService(core::System& sys, MachineFactory factory,
                                     std::size_t batch_max)
    : sys_(sys), batch_max_(batch_max) {
  correct_ = sys_.correct_ids();
  DR_ASSERT_MSG(!correct_.empty(), "ReplicatedService needs a correct process");
  for (ProcessId p = 0; p < sys_.n(); ++p) {
    machines_.push_back(factory());
    // An overloaded simulated client may queue up to 100k txs per replica
    // before submissions are refused (no early kBusy watermark).
    pools_.push_back(std::make_unique<ingress::Mempool>(
        ingress::MempoolOptions{.capacity = 100'000, .busy_watermark = 1.0}));
  }
  for (ProcessId p : correct_) {
    sys_.node(p).set_app_deliver(
        [this, p](const Bytes& block, Round, ProcessId) {
          // Padding / foreign blocks carry no txs: no-op.
          const bool probe = p == correct_.front();
          for (const ingress::CommittedTx& c : pools_[p]->commit_block(block)) {
            machines_[p]->apply(c.tx.payload);
            // First delivery per id at the probe; re-proposed copies of a
            // tx submitted to several replicas are not counted again.
            if (probe && committed_ids_.insert(c.tx.id).second) {
              latency_.add(static_cast<double>(sys_.simulator().now() -
                                               c.tx.submit_time));
            }
          }
        });
  }
}

bool ReplicatedService::submit(ProcessId p, std::uint64_t command_id,
                               Bytes command) {
  txpool::Transaction tx;
  tx.id = command_id;
  tx.submit_time = sys_.simulator().now();
  tx.payload = std::move(command);
  return pools_[p]->submit(std::move(tx), ingress::TxOrigin{}) ==
         ingress::SubmitStatus::kAccepted;
}

void ReplicatedService::start() {
  for (ProcessId p : correct_) schedule_pump(p);
}

void ReplicatedService::schedule_pump(ProcessId p) {
  sys_.simulator().schedule(kPumpEvery, [this, p] {
    // Keep the proposal queue primed: one pending block at a time so every
    // vertex carries the freshest batch.
    if (sys_.node(p).builder().blocks_pending() == 0) {
      if (auto block = pools_[p]->drain_block(batch_max_)) {
        sys_.node(p).rider().a_bcast(std::move(*block));
      }
    }
    schedule_pump(p);
  });
}

bool ReplicatedService::replicas_consistent() const {
  // Group correct replicas by applied-command count; within a group the
  // digests must match exactly (they executed the same ordered prefix —
  // KvStore rejections are deterministic, so counts identify positions).
  for (std::size_t a = 0; a < correct_.size(); ++a) {
    for (std::size_t b = a + 1; b < correct_.size(); ++b) {
      const StateMachine& ma = *machines_[correct_[a]];
      const StateMachine& mb = *machines_[correct_[b]];
      if (ma.applied_count() == mb.applied_count() &&
          ma.state_digest() != mb.state_digest()) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace dr::app
