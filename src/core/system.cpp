#include "core/system.hpp"

#include <algorithm>

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
  faults_ = cfg_.faults;
  faults_.resize(cfg_.committee.n, FaultKind::kNone);
  cfg_.faults = faults_;

  dealer_ = std::make_unique<coin::CoinDealer>(cfg_.seed ^ coin::kDealerSeedTweak,
                                               cfg_.committee);

  // Mark faults on the network before any traffic flows: crash silences a
  // process entirely; silent/equivocating processes count as corrupted for
  // the adversary budget and the honest-bytes accounting.
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    if (faults_[pid] == FaultKind::kCrash) {
      net_->crash(pid);
    } else if (faults_[pid] != FaultKind::kNone) {
      net_->corrupt(pid);
    }
  }

  nodes_.reserve(cfg_.committee.n);
  for (ProcessId pid = 0; pid < cfg_.committee.n; ++pid) {
    // The only fault that changes a process's own code is equivocation;
    // crash, silent and stealthy are played by the harness around an
    // honest stack.
    StackOptions opts{
        .rbc_kind = cfg_.rbc_kind,
        .gossip = cfg_.gossip,
        .byzantine = faults_[pid] == FaultKind::kEquivocate
                         ? ByzantineProfile::kEquivocate
                         : ByzantineProfile::kHonest,
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
    // Crashed processes never run; silent ones only service others' RBC
    // instances (their components are wired but propose nothing).
    if (faults_[pid] == FaultKind::kCrash || faults_[pid] == FaultKind::kSilent) {
      continue;
    }
    nodes_[pid]->builder().start();
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

bool System::run_until_wave_decided(Wave w, std::uint64_t max_events) {
  return sim_.run_until(
      [this, w] {
        for (ProcessId pid : correct_ids()) {
          if (nodes_[pid]->rider().decided_wave() < w) return false;
        }
        return true;
      },
      max_events);
}

bool prefix_consistent(const System& sys) {
  std::vector<std::vector<DeliveredRecord>> logs;
  for (ProcessId pid : sys.correct_ids()) {
    logs.push_back(sys.node(pid).delivered());
  }
  return !audit_total_order(logs).has_value();
}

double chain_quality(const System& sys) {
  const std::vector<ProcessId> ids = sys.correct_ids();
  if (ids.empty()) return 0.0;
  std::size_t prefix = SIZE_MAX;
  for (ProcessId pid : ids) {
    prefix = std::min(prefix, sys.node(pid).delivered().size());
  }
  if (prefix == 0 || prefix == SIZE_MAX) return 0.0;
  const auto& log = sys.node(ids[0]).delivered();
  std::size_t correct_blocks = 0;
  for (std::size_t i = 0; i < prefix; ++i) {
    if (sys.is_correct(log[i].source)) ++correct_blocks;
  }
  return static_cast<double>(correct_blocks) / static_cast<double>(prefix);
}

}  // namespace dr::core
