#include "core/system.hpp"

#include "common/assert.hpp"
#include "core/audit.hpp"

namespace dr::core {

Node::Node(sim::Network& net, ProcessId pid, StackOptions opts,
           const coin::CoinDealer* dealer, sim::Simulator& sim)
    : stack_(
          net, pid, std::move(opts), dealer,
          [this, &sim](const Bytes& block, const crypto::Digest& block_digest,
                       Round r, ProcessId src) {
            delivered_.push_back(
                DeliveredRecord{block_digest, block.size(), r, src, sim.now()});
            if (app_deliver_) app_deliver_(block, r, src);
          },
          [this, &sim](Wave w, dag::VertexId leader, bool direct) {
            commits_.push_back(CommitRecord{w, leader, direct, sim.now()});
          }) {}

System::System(SystemConfig cfg) : cfg_(std::move(cfg)), sim_(cfg_.seed) {
  DR_ASSERT_MSG(cfg_.committee.valid(), "System: committee must satisfy n > 3f");
  if (!cfg_.delays) {
    cfg_.delays = std::make_unique<sim::UniformDelay>(1, 100);
  }
  net_ = std::make_unique<sim::Network>(sim_, cfg_.committee,
                                        std::move(cfg_.delays));
  cfg_.faults.resize(cfg_.committee.n, FaultKind::kNone);

  dealer_ = std::make_unique<coin::CoinDealer>(cfg_.seed ^ coin::kDealerSeedTweak,
                                               cfg_.committee);

  // Mark faults on the network before any traffic flows: crash silences a
  // process entirely; every other fault counts as corrupted for the
  // adversary budget and the honest-bytes accounting.
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (cfg_.faults[pid] == FaultKind::kCrash) {
      net_->crash(pid);
    } else if (cfg_.faults[pid] != FaultKind::kNone) {
      net_->corrupt(pid);
    }
  }

  nodes_.reserve(cfg_.committee.n);
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    StackOptions opts{
        .rbc_kind = cfg_.rbc_kind,
        .fault = cfg_.faults[pid],
        .coin_mode = cfg_.coin_mode,
        .ordering = cfg_.ordering,
        .bullshark = cfg_.bullshark,
        .builder = cfg_.builder,
        .gc_depth_rounds = cfg_.gc_depth_rounds,
        .seed = cfg_.seed,
    };
    nodes_.push_back(std::make_unique<Node>(*net_, pid, std::move(opts),
                                            dealer_.get(), sim_));
  }
}

System::~System() = default;

void System::start() {
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (cfg_.faults[pid] != FaultKind::kCrash) nodes_[pid]->builder().start();
  }
}

std::vector<ProcessId> System::correct_ids() const {
  std::vector<ProcessId> out;
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (is_correct(pid)) out.push_back(pid);
  }
  return out;
}

bool System::run_until_delivered(std::uint64_t count, std::uint64_t max_events) {
  return sim_.run_until(
      [this, count] {
        for (ProcessId pid : correct_ids()) {
          if (nodes_[pid]->rider().delivered_count() < count) return false;
        }
        return true;
      },
      max_events);
}

std::vector<std::vector<DeliveredRecord>> correct_logs(const System& sys) {
  std::vector<std::vector<DeliveredRecord>> logs;
  for (ProcessId pid : sys.correct_ids()) {
    logs.push_back(sys.node(pid).delivered());
  }
  return logs;
}

bool prefix_consistent(const System& sys) {
  return !audit_total_order(correct_logs(sys)).has_value();
}

}  // namespace dr::core
