// Tests for DAG garbage collection (the bounded-memory extension): safety
// properties must survive compaction, memory must actually stay bounded,
// and the documented bounded-window Validity trade-off must behave exactly
// as specified.
#include <gtest/gtest.h>

#include <set>

#include "core/audit.hpp"
#include "core/system.hpp"
#include "sim/adversary.hpp"
#include "sim/network.hpp"

namespace dr::core {
namespace {

TEST(DagGc, SafetyHoldsWithAggressiveGc) {
  SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 7;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 16;
  cfg.gc_depth_rounds = 8;  // two waves of slack
  System sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(120));
  EXPECT_TRUE(prefix_consistent(sys));
  for (ProcessId pid : sys.correct_ids()) {
    EXPECT_GT(sys.node(pid).builder().dag().compacted_floor(), 0u)
        << "GC never ran at p" << pid;
    std::set<std::pair<Round, ProcessId>> seen;
    for (const DeliveredRecord& r : sys.node(pid).delivered()) {
      EXPECT_TRUE(seen.emplace(r.round, r.source).second) << "double delivery";
    }
  }
}

TEST(DagGc, MemoryStaysBoundedOverLongRun) {
  auto retained_bytes_after = [](Round gc_depth, std::uint64_t deliveries) {
    SystemConfig cfg;
    cfg.committee = Committee::for_f(1);
    cfg.seed = 21;
    cfg.rbc_kind = rbc::RbcKind::kOracle;
    cfg.builder.auto_blocks = true;
    cfg.builder.auto_block_size = 8;
    cfg.gc_depth_rounds = gc_depth;
    System sys(std::move(cfg));
    sys.start();
    EXPECT_TRUE(sys.run_until_delivered(deliveries));
    return sys.node(0).builder().dag().retained_bytes();
  };

  // Without GC, retained blocks, edges and wire buffers grow linearly with
  // run length; with GC they plateau. Compare a short and a 4x longer run.
  const std::size_t gc_short = retained_bytes_after(12, 100);
  const std::size_t gc_long = retained_bytes_after(12, 400);
  const std::size_t nogc_long = retained_bytes_after(0, 400);
  EXPECT_LT(gc_long, gc_short * 3) << "GC'd memory should plateau";
  EXPECT_LT(gc_long * 5, nogc_long) << "GC should beat no-GC by a wide margin";
}

TEST(DagGc, CompactedRegionQueriesAreSafe) {
  dag::Dag d(Committee::for_f(1));
  // Build 10 full rounds.
  for (Round r = 1; r <= 10; ++r) {
    const auto prev = d.round_sources(r - 1);
    for (ProcessId p = 0; p < 4; ++p) {
      dag::Vertex v;
      v.source = p;
      v.round = r;
      v.block = Bytes(100, 0xAA);
      v.strong_edges = prev;
      d.insert(std::move(v));
    }
  }
  const std::size_t bytes_before = d.retained_bytes();
  d.compact_below(6);
  EXPECT_EQ(d.compacted_floor(), 6u);
  EXPECT_LT(d.retained_bytes(), bytes_before);

  // Compacted vertices still exist but their payloads are gone.
  ASSERT_TRUE(d.contains(dag::VertexId{0, 3}));
  EXPECT_TRUE(d.get(dag::VertexId{0, 3})->block.empty());
  EXPECT_EQ(d.round_size(3), 4u);

  // Reachability into the compacted region answers false (callers use the
  // delivered set there), and stays correct above the floor.
  EXPECT_FALSE(d.path(dag::VertexId{0, 10}, dag::VertexId{0, 3}));
  EXPECT_FALSE(d.strong_path(dag::VertexId{0, 10}, dag::VertexId{0, 3}));
  EXPECT_TRUE(d.strong_path(dag::VertexId{0, 10}, dag::VertexId{1, 7}));
  EXPECT_TRUE(d.strong_path(dag::VertexId{0, 10}, dag::VertexId{3, 6}));

  // Causal history from the top prunes at the floor.
  const auto hist = d.causal_history(dag::VertexId{0, 10}, [&](dag::VertexId id) {
    return id.round < 6;
  });
  for (const auto& id : hist) EXPECT_GE(id.round, 6u);

  // Compaction is monotonic and idempotent.
  d.compact_below(4);
  EXPECT_EQ(d.compacted_floor(), 6u);
  d.compact_below(6);
  EXPECT_EQ(d.compacted_floor(), 6u);
}

TEST(DagGc, LateVertexBelowFloorIsDroppedNotCrashed) {
  // A vertex delivered for an already-collected round must be ignored.
  SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 31;
  cfg.rbc_kind = rbc::RbcKind::kOracle;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 8;
  cfg.gc_depth_rounds = 6;
  System sys(std::move(cfg));
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(100));
  const Round floor = sys.node(0).builder().dag().compacted_floor();
  ASSERT_GT(floor, 2u);

  // Inject an oracle-delivered vertex for round 1 (long collected).
  dag::Vertex stale;
  stale.strong_edges = {0, 1, 2};
  ByteWriter w;
  w.u64(1);
  w.blob(stale.serialize());
  sys.network().send(3, 0, sim::Channel::kOracle, std::move(w).take());
  // Bounded drive: auto-blocks keep the system alive forever, so an
  // unbounded run() would never return.
  sys.simulator().run(200'000);
  // No crash, no new round-1 vertex, properties intact.
  EXPECT_TRUE(prefix_consistent(sys));
}

// The ordering floor is a function of the decided wave alone. A process
// whose builder holds its compaction back (the runtime's laggard holdback,
// pinned here at round 1) must still skip exactly the rounds every other
// process skips: a delivery floor read from the held-back builder makes p0
// re-deliver everything between the two floors, once per later commit.
TEST(DagGc, HeldBackFloorDoesNotRedeliver) {
  SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 5;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 16;
  cfg.gc_depth_rounds = 8;
  cfg.delays = std::make_unique<sim::FixedSetDelay>(
      std::vector<ProcessId>{3}, 10, 200);
  System sys(std::move(cfg));
  sys.node(0).builder().set_gc_floor_cap(1);
  sys.start();
  ASSERT_TRUE(sys.run_until_delivered(400));

  std::vector<std::vector<DeliveredRecord>> delivered;
  std::vector<std::vector<CommitRecord>> commits;
  for (ProcessId pid : sys.correct_ids()) {
    delivered.push_back(sys.node(pid).delivered());
    commits.push_back(sys.node(pid).commits());
  }
  const auto violation = audit_logs(delivered, commits);
  EXPECT_FALSE(violation.has_value()) << *violation;
  EXPECT_TRUE(prefix_consistent(sys));
  EXPECT_EQ(sys.node(0).builder().gc_floor(), 1u) << "the cap did not hold";
}

}  // namespace
}  // namespace dr::core
