// Property-based sweeps: randomized schedules (seeds) x protocol stacks x
// fault mixes, auditing every BAB invariant plus structural DAG properties
// that the unit tests cannot see (cross-process DAG convergence, causal
// closure of delivery, commit monotonicity).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "core/audit.hpp"
#include "core/system.hpp"
#include "sim/network.hpp"

namespace dr::core {
namespace {

struct Scenario {
  std::uint64_t seed;
  std::uint32_t f;
  rbc::RbcKind rbc;
  CoinMode coin;
  int fault_mix;  // 0 none, 1 crash f, 2 mute 1, 3 mixed
  const char* name;
};

class PropertySweep : public ::testing::TestWithParam<Scenario> {};

/// Full-strength audit of a finished run. Items 1-3 (the log-level BAB
/// invariants) go through the shared auditors in core/audit.hpp — the same
/// functions that judge real-concurrency cluster runs — so the simulator
/// sweeps and the threaded runtime are held to literally the same predicate.
void audit(System& sys) {
  const auto ids = sys.correct_ids();

  // 1-3. Total order, integrity, commit monotonicity + agreement.
  std::vector<std::vector<DeliveredRecord>> delivered_logs;
  std::vector<std::vector<CommitRecord>> commit_logs;
  for (ProcessId pid : ids) {
    delivered_logs.push_back(sys.node(pid).delivered());
    commit_logs.push_back(sys.node(pid).commits());
  }
  const auto violation = audit_logs(delivered_logs, commit_logs);
  ASSERT_FALSE(violation.has_value()) << *violation;

  // 4. DAG convergence: for every (round, source) present at two correct
  // processes, the vertex content (block digest + edges) must be identical
  // — reliable broadcast's no-equivocation guarantee, observed end-to-end.
  const ProcessId p0 = ids.front();
  const dag::Dag& d0 = sys.node(p0).builder().dag();
  for (ProcessId pid : ids) {
    if (pid == p0) continue;
    const dag::Dag& d = sys.node(pid).builder().dag();
    const Round common = std::min(d0.max_round(), d.max_round());
    const Round floor = std::max(d0.compacted_floor(), d.compacted_floor());
    for (Round r = std::max<Round>(1, floor); r <= common; ++r) {
      for (ProcessId s : d0.round_sources(r)) {
        const dag::Vertex* va = d0.get(dag::VertexId{s, r});
        const dag::Vertex* vb = d.get(dag::VertexId{s, r});
        if (va == nullptr || vb == nullptr) continue;  // not yet delivered
        ASSERT_EQ(crypto::sha256(va->block), crypto::sha256(vb->block))
            << "DAG divergence at (" << s << "," << r << ")";
        ASSERT_EQ(va->strong_edges, vb->strong_edges);
        ASSERT_EQ(va->weak_edges, vb->weak_edges);
      }
    }
  }

  // 5. Causal closure of delivery at the probe: every delivered vertex's
  // strong parents in round >= 1 were delivered too (in some earlier or
  // equal position).
  {
    std::set<std::pair<Round, ProcessId>> delivered;
    for (const DeliveredRecord& rec : sys.node(p0).delivered()) {
      delivered.emplace(rec.round, rec.source);
    }
    const Round floor = d0.compacted_floor();
    for (const auto& [round, source] : delivered) {
      if (round <= std::max<Round>(1, floor)) continue;
      const dag::Vertex* v = d0.get(dag::VertexId{source, round});
      if (v == nullptr) continue;
      for (ProcessId parent : v->strong_edges) {
        if (round - 1 == 0 || round - 1 < floor) continue;
        ASSERT_TRUE(delivered.count({round - 1, parent}) > 0)
            << "delivery not causally closed at (" << parent << ","
            << round - 1 << ")";
      }
    }
  }
}

TEST_P(PropertySweep, InvariantsHold) {
  const Scenario sc = GetParam();
  SystemConfig cfg;
  cfg.committee = Committee::for_f(sc.f);
  cfg.seed = sc.seed;
  cfg.rbc_kind = sc.rbc;
  cfg.coin_mode = sc.coin;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 12;
  cfg.faults.assign(cfg.committee.n, FaultKind::kNone);
  switch (sc.fault_mix) {
    case 1:
      for (std::uint32_t i = 0; i < sc.f; ++i) {
        cfg.faults[cfg.committee.n - 1 - i] = FaultKind::kCrash;
      }
      break;
    case 2:
      cfg.faults[0] = FaultKind::kMute;
      break;
    case 3:
      cfg.faults[cfg.committee.n - 1] = FaultKind::kCrash;
      if (sc.f >= 2) cfg.faults[0] = FaultKind::kMute;
      break;
    default:
      break;
  }
  // Random-ish adversary per seed.
  switch (sc.seed % 3) {
    case 0:
      cfg.delays = std::make_unique<sim::UniformDelay>(1, 150);
      break;
    case 1:
      cfg.delays = std::make_unique<sim::RotatingDelay>(
          cfg.committee.n, std::max(1u, sc.f), 250, 30, 300);
      break;
    default:
      cfg.delays = std::make_unique<sim::AsymmetricDelay>(sc.seed, 200, 25, 250);
      break;
  }

  System sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(5ull * Committee::for_f(sc.f).n,
                                      100'000'000))
      << sc.name << " stalled";
  audit(sys);
}

std::vector<Scenario> make_scenarios() {
  std::vector<Scenario> out;
  static std::vector<std::string> names;  // stable storage for name c_strs
  const rbc::RbcKind kinds[] = {rbc::RbcKind::kOracle, rbc::RbcKind::kBracha,
                                rbc::RbcKind::kBrachaHash, rbc::RbcKind::kAvid};
  const CoinMode coins[] = {CoinMode::kThreshold, CoinMode::kPiggyback,
                            CoinMode::kLocal};
  std::uint64_t seed = 1;
  for (std::uint32_t f : {1u, 2u}) {
    for (rbc::RbcKind kind : kinds) {
      for (int fault_mix : {0, 1, 3}) {
        const CoinMode coin = coins[seed % 3];
        std::string name = std::string(rbc::to_string(kind)) + "_f" +
                           std::to_string(f) + "_faults" +
                           std::to_string(fault_mix) + "_s" +
                           std::to_string(seed);
        std::replace(name.begin(), name.end(), '-', '_');
        names.push_back(std::move(name));
        out.push_back(Scenario{seed, f, kind, coin, fault_mix,
                               names.back().c_str()});
        ++seed;
      }
    }
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(Sweep, PropertySweep,
                         ::testing::ValuesIn(make_scenarios()),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace dr::core
