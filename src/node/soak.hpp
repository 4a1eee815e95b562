// Seeded chaos soak driver (DESIGN.md §12): runs one live cluster under a
// randomized fault schedule — chaos links, scripted partition, crash-churn,
// an optional live Byzantine node — and judges the surviving logs with the
// shared BAB auditors (core/audit.hpp). One seed pins the entire adversarial
// schedule: the ChaosPlan, the Byzantine seat, and the churn victim/timing
// all derive from it, so SoakResult::describe() is a complete replay recipe.
//
// The driver owns no files: callers that want churn (which needs durable
// state to restart from) pass a caller-created wal_dir. This keeps file I/O
// confined to src/storage/ per the daglint file-io rule.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "metrics/counters.hpp"
#include "node/cluster.hpp"

namespace dr::node {

struct SoakOptions {
  std::uint64_t seed = 1;
  std::uint32_t n = 4;
  /// Ordering personality the whole cluster runs under (DESIGN.md §14).
  core::OrderingKind ordering = core::OrderingKind::kDagRider;
  /// Blocks every (audited) node must a_deliver for the run to count as
  /// having made progress.
  std::uint64_t target_delivered = 40;
  std::chrono::milliseconds timeout{30'000};
  /// Gates the randomized plan's scripted-partition clause.
  bool with_partition = true;
  /// Crash-stop one honest node mid-run and restart it (requires wal_dir so
  /// the victim has a WAL to recover from before catch-up sync tops it up).
  bool with_churn = false;
  /// != kHonest seats one live adversary at a seed-derived pid; its logs are
  /// excluded from the audit (the BAB model judges correct processes only).
  core::ByzantineProfile byzantine = core::ByzantineProfile::kHonest;
  /// Base directory for per-node WALs; empty = no persistence (and no churn).
  std::string wal_dir;
  /// Self-test hook: corrupt one delivered record before auditing, proving
  /// the harness catches violations and replays them from the printed seed.
  bool canary = false;
  /// Drive client traffic through every node's TCP ingress tier for the
  /// whole run, with seeded client connect/disconnect churn — the
  /// reconnect-resubmit path exercised under the same fault schedule as the
  /// protocol (DESIGN.md §13).
  bool with_ingress = false;
  std::uint64_t ingress_clients = 2'000;
  double ingress_rate_tps = 2'000.0;
  /// Loadgen-side connection churn period (0 = no client churn).
  std::uint64_t ingress_churn_period_ms = 150;
};

struct SoakResult {
  bool ok = false;          ///< progressed && no auditor violation
  bool progressed = false;  ///< every audited node hit target_delivered
  std::string violation;    ///< first auditor violation ("" when clean)
  std::uint64_t seed = 0;
  core::OrderingKind ordering = core::OrderingKind::kDagRider;
  std::string plan;  ///< ChaosPlan::describe() of the schedule that ran
  /// pid of the seated adversary, or n (== "none") when all-honest.
  ProcessId byzantine_pid = 0;
  std::uint64_t byzantine_attacks = 0;
  /// pid crashed and restarted mid-run, or n when churn was off.
  ProcessId churn_pid = 0;
  /// Cluster-wide counter aggregate (includes transport.chaos.* fault
  /// counts, transport.backpressure_overflows, and — with ingress on —
  /// the mempool.* / ingress.* families).
  metrics::Counters counters;
  /// Ingress loadgen outcome (all zero when with_ingress was off).
  std::uint64_t ingress_submitted = 0;
  std::uint64_t ingress_acked = 0;
  std::uint64_t ingress_resubmitted = 0;
  std::uint64_t ingress_churn_events = 0;
  double ingress_ack_p50_ms = 0.0;
  double ingress_ack_p99_ms = 0.0;

  /// One-line replay recipe, printed on any violation.
  std::string describe() const;
};

/// Runs one seeded soak to completion. Deterministic in its adversarial
/// schedule (see net/chaos.hpp for what the seed does and does not pin).
SoakResult run_chaos_soak(const SoakOptions& opts);

}  // namespace dr::node
