// Differential proof of the ordering seam (DESIGN.md §14): the same seeded
// schedule — identical delays, faults, and RBC traffic — is run once under
// DagRider and once under BullsharkRider, and the two runs are judged
// against each other. With the local-coin oracle the ordering layer sends no
// messages, so both personalities observe bit-identical DAGs; everything
// that may differ is the commit rule's choice of leaders, and everything
// that must NOT differ is checked here:
//
//  * each personality's logs pass the shared BAB auditors (total order,
//    integrity, commit monotonicity + agreement) across its n nodes;
//  * the DAGs really are bit-identical across personalities (per-vertex
//    block digest + edge sets), proving the seam does not leak ordering
//    decisions into DAG construction;
//  * every delivery, in either personality, is consistent: one digest per
//    (round, source) across all 2n logs — a delivered block means the same
//    bytes everywhere;
//  * each log is a causal linearization of its DAG (parents before
//    children), the property the walk-back + causal-history traversal is
//    supposed to preserve regardless of which waves commit.
//
// A second suite stages the leader-targeting attack: every steady-state
// anchor points at a crashed process, so only Bullshark's coin-drawn
// safety-net waves can commit — the log must keep growing through the
// fallback path alone, with zero auditor violations.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/audit.hpp"
#include "core/system.hpp"
#include "crypto/sha256.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"

namespace dr::core {
namespace {

struct DiffScenario {
  std::uint64_t seed;
  std::uint32_t n;
  const char* name;
};

/// Seed-derived adversary, constructed fresh per system so both personalities
/// face the same (deterministic) schedule.
std::unique_ptr<sim::DelayModel> make_delays(std::uint64_t seed,
                                             std::uint32_t n) {
  switch (seed % 3) {
    case 0:
      return std::make_unique<sim::UniformDelay>(1, 120);
    case 1:
      return std::make_unique<sim::RotatingDelay>(n, Committee::for_n(n).f,
                                                  200, 20, 250);
    default:
      return std::make_unique<sim::AsymmetricDelay>(seed, 180, 20, 220);
  }
}

/// Seed-derived fault mix (at most f faulty).
std::vector<FaultKind> make_faults(std::uint64_t seed, std::uint32_t n) {
  const std::uint32_t f = Committee::for_n(n).f;
  std::vector<FaultKind> faults(n, FaultKind::kNone);
  switch (seed % 3) {
    case 0:  // fault-free
      break;
    case 1:  // crash the tail f
      for (std::uint32_t i = 0; i < f; ++i) {
        faults[n - 1 - i] = FaultKind::kCrash;
      }
      break;
    default:  // one mute proposer (plus a crash when f >= 2)
      faults[0] = FaultKind::kMute;
      if (f >= 2) faults[n - 1] = FaultKind::kCrash;
      break;
  }
  return faults;
}

SystemConfig make_config(const DiffScenario& sc, OrderingKind ordering) {
  SystemConfig cfg;
  cfg.committee = Committee::for_n(sc.n);
  cfg.seed = sc.seed;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  // Local-coin oracle: leader draws are message-free, so the wire traffic —
  // and therefore the DAG — cannot depend on the ordering personality.
  cfg.coin_mode = CoinMode::kLocal;
  cfg.ordering = ordering;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 12;
  cfg.delays = make_delays(sc.seed, sc.n);
  cfg.faults = make_faults(sc.seed, sc.n);
  return cfg;
}

/// The shared auditors over one personality's n correct logs.
void audit_system(System& sys, const char* label) {
  std::vector<std::vector<DeliveredRecord>> delivered;
  std::vector<std::vector<CommitRecord>> commits;
  for (ProcessId pid : sys.correct_ids()) {
    delivered.push_back(sys.node(pid).delivered());
    commits.push_back(sys.node(pid).commits());
  }
  const auto violation = audit_logs(delivered, commits);
  ASSERT_FALSE(violation.has_value()) << label << ": " << *violation;
}

/// Delivered logs are causal linearizations: a vertex's strong parents (in
/// rounds >= 1) appear in the log before it.
void assert_causal_linearization(System& sys, const char* label) {
  for (ProcessId pid : sys.correct_ids()) {
    const dag::Dag& dag = sys.node(pid).builder().dag();
    std::set<std::pair<Round, ProcessId>> seen;
    for (const DeliveredRecord& rec : sys.node(pid).delivered()) {
      const dag::Vertex* v = dag.get(dag::VertexId{rec.source, rec.round});
      ASSERT_NE(v, nullptr) << label << ": delivered vertex absent from DAG";
      if (rec.round > 1) {
        for (ProcessId parent : v->strong_edges) {
          ASSERT_TRUE(seen.count({rec.round - 1, parent}) > 0)
              << label << ": (" << rec.source << "," << rec.round
              << ") delivered before strong parent (" << parent << ","
              << rec.round - 1 << ")";
        }
      }
      seen.emplace(rec.round, rec.source);
    }
  }
}

class OrderingDiff : public ::testing::TestWithParam<DiffScenario> {};

TEST_P(OrderingDiff, PersonalitiesAgreeOnSeededSchedules) {
  const DiffScenario sc = GetParam();

  System dagrider(make_config(sc, OrderingKind::kDagRider));
  System bullshark(make_config(sc, OrderingKind::kBullshark));
  dagrider.start();
  bullshark.start();

  const std::uint64_t target = 5ull * sc.n;
  ASSERT_TRUE(dagrider.run_until_delivered(target, 100'000'000))
      << sc.name << ": dagrider stalled";
  ASSERT_TRUE(bullshark.run_until_delivered(target, 100'000'000))
      << sc.name << ": bullshark stalled";

  // Per-personality BAB invariants via the shared auditors.
  audit_system(dagrider, "dagrider");
  audit_system(bullshark, "bullshark");

  // The seam must not leak into DAG construction: for every correct pid,
  // the two personalities' DAGs agree vertex-for-vertex wherever both have
  // the vertex (the runs stop at different event counts, so frontiers may
  // differ; the overlap must be non-trivial and bit-identical).
  std::uint64_t compared = 0;
  for (ProcessId pid : dagrider.correct_ids()) {
    const dag::Dag& da = dagrider.node(pid).builder().dag();
    const dag::Dag& db = bullshark.node(pid).builder().dag();
    const Round common = std::min(da.max_round(), db.max_round());
    for (Round r = 1; r <= common; ++r) {
      for (ProcessId s : da.round_sources(r)) {
        const dag::Vertex* va = da.get(dag::VertexId{s, r});
        const dag::Vertex* vb = db.get(dag::VertexId{s, r});
        if (va == nullptr || vb == nullptr) continue;
        ASSERT_EQ(crypto::sha256(va->block), crypto::sha256(vb->block))
            << sc.name << ": DAG divergence at (" << s << "," << r << ")";
        ASSERT_EQ(va->strong_edges, vb->strong_edges);
        ASSERT_EQ(va->weak_edges, vb->weak_edges);
        ++compared;
      }
    }
  }
  ASSERT_GT(compared, target) << sc.name << ": DAG overlap too small";

  // One digest per (round, source) across ALL logs of BOTH personalities:
  // the personalities may order different prefixes, but a delivery can only
  // ever mean the one block the DAG holds there.
  std::map<std::pair<Round, ProcessId>, crypto::Digest> digests;
  for (System* sys : {&dagrider, &bullshark}) {
    for (ProcessId pid : sys->correct_ids()) {
      for (const DeliveredRecord& rec : sys->node(pid).delivered()) {
        const auto key = std::make_pair(rec.round, rec.source);
        const auto [it, fresh] = digests.emplace(key, rec.block_digest);
        ASSERT_TRUE(fresh || it->second == rec.block_digest)
            << sc.name << ": conflicting digests for (" << rec.source << ","
            << rec.round << ") across personalities";
      }
    }
  }

  // Both logs are causal linearizations of their DAGs.
  assert_causal_linearization(dagrider, "dagrider");
  assert_causal_linearization(bullshark, "bullshark");

  // Liveness sanity: the 2-round-wave personality decides at least as many
  // waves per round as the 4-round one on the same schedule.
  const ProcessId probe = dagrider.correct_ids().front();
  EXPECT_GT(bullshark.node(probe).rider().decided_wave(), 0u);
  EXPECT_GT(dagrider.node(probe).rider().decided_wave(), 0u);
}

std::vector<DiffScenario> make_diff_scenarios() {
  std::vector<DiffScenario> out;
  // Deque, not vector: short names sit in SSO buffers, so the c_strs must
  // survive container growth.
  static std::deque<std::string> names;
  for (std::uint32_t n : {4u, 7u}) {
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
      std::string& name = names.emplace_back("n");
      name += std::to_string(n);
      name += "_s";
      name += std::to_string(seed);
      out.push_back(DiffScenario{seed, n, name.c_str()});
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, OrderingDiff,
                         ::testing::ValuesIn(make_diff_scenarios()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

// --- Leader-targeting attack: the fallback path alone must stay live ------

TEST(BullsharkFallback, SafetyNetWavesCommitWhenAllAnchorsAreCrashed) {
  SystemConfig cfg;
  cfg.committee = Committee::for_n(7);
  cfg.seed = 7;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.coin_mode = CoinMode::kLocal;
  cfg.ordering = OrderingKind::kBullshark;
  // Every steady-state anchor is the crashed process: the adversary knows
  // the (public) anchor schedule and took its one seat down. Only the
  // safety-net waves — every kBullsharkFallbackStride-th (4th) wave, leader
  // drawn from the coin after the votes are cast — can commit.
  const ProcessId victim = 6;
  cfg.bullshark.anchor_of = [victim](Wave) { return victim; };
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 12;
  cfg.delays = std::make_unique<sim::UniformDelay>(1, 80);
  cfg.faults.assign(cfg.committee.n, FaultKind::kNone);
  cfg.faults[victim] = FaultKind::kCrash;

  System sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(5ull * 7, 100'000'000))
      << "fallback path failed to keep the log growing";

  audit_system(sys, "bullshark-fallback");
  assert_causal_linearization(sys, "bullshark-fallback");

  for (ProcessId pid : sys.correct_ids()) {
    auto& rider = static_cast<BullsharkRider&>(sys.node(pid).rider());
    ASSERT_EQ(rider.kind(), OrderingKind::kBullshark);
    // No steady wave can commit (its anchor never proposed); every commit
    // came through the coin-drawn safety net.
    EXPECT_EQ(rider.steady_commits(), 0u);
    EXPECT_GT(rider.fallback_commits(), 0u);
    // The miss counter saw >= kBullsharkMissThreshold consecutive anchor
    // misses and reported degraded mode.
    EXPECT_GE(rider.fallback_entries(), 1u);
    EXPECT_EQ(rider.mode(), BullsharkRider::Mode::kFallback);
  }
}

// --- Recovery from the attack: anchors heal, steady path resumes ----------

TEST(BullsharkFallback, SteadyModeResumesWhenAnchorsAreHealthy) {
  SystemConfig cfg;
  cfg.committee = Committee::for_n(4);
  cfg.seed = 11;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.coin_mode = CoinMode::kLocal;
  cfg.ordering = OrderingKind::kBullshark;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 12;
  cfg.delays = std::make_unique<sim::UniformDelay>(1, 40);

  System sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(5ull * 4, 100'000'000));

  audit_system(sys, "bullshark-steady");
  for (ProcessId pid : sys.correct_ids()) {
    auto& rider = static_cast<BullsharkRider&>(sys.node(pid).rider());
    // Fault-free synchronous-ish run: the steady path does the committing
    // and the node never reports degraded mode.
    EXPECT_GT(rider.steady_commits(), 0u);
    EXPECT_EQ(rider.fallback_entries(), 0u);
    EXPECT_EQ(rider.mode(), BullsharkRider::Mode::kSteady);
  }
}

}  // namespace
}  // namespace dr::core
