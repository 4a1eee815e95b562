// Unit tests: vertex serialization, DAG store, reachability, causal history.
#include <gtest/gtest.h>

#include <algorithm>

#include "dag/dag.hpp"
#include "dag/vertex.hpp"

namespace dr::dag {
namespace {

Vertex make_vertex(ProcessId source, Round round, std::vector<ProcessId> strong,
                   std::vector<VertexId> weak = {}) {
  Vertex v;
  v.source = source;
  v.round = round;
  v.block = Bytes{static_cast<std::uint8_t>(source),
                  static_cast<std::uint8_t>(round)};
  v.strong_edges = std::move(strong);
  v.weak_edges = std::move(weak);
  return v;
}

TEST(Vertex, SerializeRoundTrip) {
  Vertex v = make_vertex(2, 5, {0, 1, 3}, {VertexId{1, 2}, VertexId{0, 1}});
  v.has_coin_share = true;
  v.coin_share = 0xDEADBEEF;
  const Bytes wire = v.serialize();
  EXPECT_EQ(wire.size(), v.wire_size());

  auto parsed = Vertex::deserialize(wire);
  ASSERT_TRUE(parsed.ok());
  const Vertex& u = parsed.value();
  EXPECT_EQ(u.block, v.block);
  EXPECT_EQ(u.strong_edges, v.strong_edges);
  EXPECT_EQ(u.weak_edges.size(), 2u);
  EXPECT_EQ(u.weak_edges[0], (VertexId{1, 2}));
  EXPECT_TRUE(u.has_coin_share);
  EXPECT_EQ(u.coin_share, 0xDEADBEEFu);
  // source/round intentionally do NOT travel in the payload.
}

TEST(Vertex, DeserializeRejectsGarbage) {
  EXPECT_FALSE(Vertex::deserialize(Bytes{}).ok());
  EXPECT_FALSE(Vertex::deserialize(Bytes{1, 2, 3}).ok());
  // Absurd strong-edge count.
  ByteWriter w;
  w.blob(BytesView{});
  w.u32(1u << 30);
  EXPECT_FALSE(Vertex::deserialize(std::move(w).take()).ok());
}

TEST(Vertex, DeserializeRejectsTrailingBytes) {
  Vertex v = make_vertex(0, 1, {0, 1, 2});
  Bytes wire = v.serialize();
  wire.push_back(0);
  EXPECT_FALSE(Vertex::deserialize(wire).ok());
}

class DagTest : public ::testing::Test {
 protected:
  DagTest() : dag_(Committee::for_f(1)) {}

  /// Inserts a full round r where every listed source references all of
  /// round r-1's vertices.
  void fill_round(Round r, const std::vector<ProcessId>& sources) {
    const std::vector<ProcessId> prev = dag_.round_sources(r - 1);
    for (ProcessId s : sources) {
      dag_.insert(make_vertex(s, r, prev));
    }
  }

  Dag dag_;
};

TEST_F(DagTest, GenesisHasQuorumVertices) {
  EXPECT_EQ(dag_.round_size(0), 3u);  // 2f+1 for f=1
  EXPECT_TRUE(dag_.contains(VertexId{0, 0}));
  EXPECT_TRUE(dag_.contains(VertexId{2, 0}));
  EXPECT_FALSE(dag_.contains(VertexId{3, 0}));
  EXPECT_EQ(dag_.vertex_count(), 3u);
}

TEST_F(DagTest, InsertAndLookup) {
  fill_round(1, {0, 1, 2, 3});
  EXPECT_EQ(dag_.round_size(1), 4u);
  const Vertex* v = dag_.get(VertexId{1, 1});
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->source, 1u);
  EXPECT_EQ(v->round, 1u);
  EXPECT_EQ(dag_.round_sources(1), (std::vector<ProcessId>{0, 1, 2, 3}));
}

TEST_F(DagTest, PathFollowsStrongEdges) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {0, 1, 2});
  EXPECT_TRUE(dag_.strong_path(VertexId{0, 2}, VertexId{1, 1}));
  EXPECT_TRUE(dag_.strong_path(VertexId{0, 2}, VertexId{2, 0}));
  EXPECT_TRUE(dag_.path(VertexId{0, 2}, VertexId{1, 1}));
  // Reflexive on present vertices.
  EXPECT_TRUE(dag_.path(VertexId{0, 2}, VertexId{0, 2}));
  // No path to absent vertices.
  EXPECT_FALSE(dag_.path(VertexId{0, 2}, VertexId{3, 1}));
  // No backward paths.
  EXPECT_FALSE(dag_.path(VertexId{1, 1}, VertexId{0, 2}));
}

TEST_F(DagTest, WeakEdgesGivePathButNotStrongPath) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {0, 1, 2});
  // Vertex {3,1} arrives late; round-3 vertex of process 0 weak-links it.
  dag_.insert(make_vertex(3, 1, {0, 1, 2}));
  const std::vector<ProcessId> r2 = dag_.round_sources(2);
  dag_.insert(make_vertex(0, 3, r2, {VertexId{3, 1}}));

  EXPECT_TRUE(dag_.path(VertexId{0, 3}, VertexId{3, 1}));
  EXPECT_FALSE(dag_.strong_path(VertexId{0, 3}, VertexId{3, 1}));
}

TEST_F(DagTest, StrongSupportCountsRoundQuorum) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {0, 1, 2, 3});
  fill_round(3, {0, 1, 2});
  fill_round(4, {0, 1, 2, 3});
  const VertexId leader{0, 1};
  EXPECT_EQ(dag_.strong_support_in_round(4, leader), 4u);
  EXPECT_EQ(dag_.strong_support_in_round(2, leader), 4u);
  EXPECT_EQ(dag_.strong_support_in_round(5, leader), 0u);  // empty round
}

TEST_F(DagTest, StrongSupportPartialWhenEdgesMissLeader) {
  fill_round(1, {0, 1, 2, 3});
  // Round 2: vertices reference only {1, 2, 3} — not the leader {0,1}.
  for (ProcessId s : {0u, 1u, 2u}) {
    dag_.insert(make_vertex(s, 2, {1, 2, 3}));
  }
  EXPECT_EQ(dag_.strong_support_in_round(2, VertexId{0, 1}), 0u);
  EXPECT_EQ(dag_.strong_support_in_round(2, VertexId{1, 1}), 3u);
}

TEST_F(DagTest, CausalHistoryCollectsAncestors) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {0, 1, 2});
  const auto all = dag_.causal_history(VertexId{0, 2}, [](VertexId) {
    return false;
  });
  // Itself + 3 round-1 + 3 genesis.
  EXPECT_EQ(all.size(), 1u + 3u + 3u);
}

TEST_F(DagTest, CausalHistorySkipPrunesSubtrees) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {0, 1, 2});
  // Skip round-0: only rounds 1..2 returned.
  const auto no_genesis = dag_.causal_history(
      VertexId{0, 2}, [](VertexId id) { return id.round == 0; });
  EXPECT_EQ(no_genesis.size(), 4u);
  for (const VertexId& id : no_genesis) EXPECT_GE(id.round, 1u);
}

TEST_F(DagTest, PathAgreesWithCausalHistory) {
  fill_round(1, {0, 1, 2});
  fill_round(2, {1, 2, 3});
  const auto hist =
      dag_.causal_history(VertexId{1, 2}, [](VertexId) { return false; });
  std::size_t reachable = 0;
  for (Round r = 0; r <= 2; ++r) {
    for (ProcessId s = 0; s < 4; ++s) {
      const VertexId id{s, r};
      const bool in_hist =
          std::find(hist.begin(), hist.end(), id) != hist.end();
      const bool reached = dag_.path(VertexId{1, 2}, id);
      EXPECT_EQ(reached, in_hist) << "{" << s << "," << r << "}";
      if (reached) ++reachable;
    }
  }
  EXPECT_EQ(reachable, hist.size());
}

TEST_F(DagTest, DuplicateInsertAborts) {
  fill_round(1, {0, 1, 2});
  EXPECT_DEATH(dag_.insert(make_vertex(0, 1, {0, 1, 2})), "duplicate vertex");
}

TEST_F(DagTest, InsertWithMissingPredecessorAborts) {
  EXPECT_DEATH(dag_.insert(make_vertex(0, 2, {0, 1, 2})),
               "strong predecessor missing");
}

}  // namespace
}  // namespace dr::dag
