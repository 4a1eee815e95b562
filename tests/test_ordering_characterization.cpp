// Characterization tests for the DagRider wave/commit machinery, written
// against hand-scripted DAGs so every edge case is pinned by an exact
// expectation rather than by whatever a live run happens to produce:
//
//   * direct commit with strong-path support exactly at 2f+1,
//   * no commit with support exactly one below the quorum,
//   * a wave whose leader vertex never arrived (skipped, history recovered
//     by the next committed wave),
//   * transitive walk-back adoption of a skipped-but-supported leader,
//   * GC-floor movement as waves decide and pruning of the delivered set,
//   * wave_ready suppression up to a snapshot-restored decided wave.
//
// The scripted DAGs are fed through the builder's restore path, which runs
// the ordinary validation/insertion gates and re-fires wave_ready at every
// certified boundary — so the rider under test sees exactly what a live run
// with this DAG shape would have seen. These tests pin the behaviour the
// ordering-strategy seam must preserve.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "coin/coin.hpp"
#include "core/ordering.hpp"
#include "dag/builder.hpp"
#include "rbc/factory.hpp"
#include "sim/network.hpp"

namespace dr::core {
namespace {

/// Coin oracle with a scripted leader per wave — the tests choose the
/// leader; the schedule is part of the scenario, not derived from a seed.
class ScriptedCoin final : public coin::Coin {
 public:
  explicit ScriptedCoin(std::map<Wave, ProcessId> leaders)
      : leaders_(std::move(leaders)) {}

  void choose_leader(Wave w, std::function<void(ProcessId)> cb) override {
    const auto it = leaders_.find(w);
    cb(it == leaders_.end() ? ProcessId{0} : it->second);
  }

 private:
  std::map<Wave, ProcessId> leaders_;
};

/// One observing process fed a scripted DAG through the restore path.
class ScriptedRun {
 public:
  explicit ScriptedRun(Committee c, std::map<Wave, ProcessId> leaders)
      : committee_(c),
        sim_(1),
        net_(sim_, c, std::make_unique<sim::UniformDelay>(1, 2)),
        coin_(std::move(leaders)) {
    rbc_ = rbc::make_factory(rbc::RbcKind::kOracle)(net_, 0, 1);
    builder_ = std::make_unique<dag::DagBuilder>(c, 0, *rbc_);
    rider_ = std::make_unique<DagRider>(*builder_, coin_);
    rider_->set_deliver([this](const Bytes&, const crypto::Digest&, Round r,
                               ProcessId source) {
      const dag::VertexId id{source, r};
      duplicate_delivery_ |= !delivered_set_.insert(id).second;
      delivered_.push_back(id);
    });
    rider_->set_commit_observer([this](Wave w, dag::VertexId leader,
                                       bool direct) {
      commits_.push_back({w, leader, direct});
    });
  }

  DagRider& rider() { return *rider_; }
  dag::DagBuilder& builder() { return *builder_; }

  void begin() { builder_->begin_restore(0); }

  /// Adds one vertex (source, round) with the given strong edges into
  /// round-1. The block is a distinct 2-byte tag so digests differ.
  void add(ProcessId source, Round round, std::vector<ProcessId> strong) {
    dag::Vertex v;
    v.block = Bytes{static_cast<std::uint8_t>(source),
                    static_cast<std::uint8_t>(round)};
    v.strong_edges = std::move(strong);
    builder_->restore_deliver(source, round, net::Payload(v.serialize()));
  }

  /// Adds a full round: every source in `sources` gets a vertex with the
  /// same strong-edge set.
  void add_round(Round round, const std::vector<ProcessId>& sources,
                 const std::vector<ProcessId>& strong) {
    for (ProcessId p : sources) add(p, round, strong);
  }

  void finish() { builder_->finish_restore(); }

  struct Commit {
    Wave wave;
    dag::VertexId leader;
    bool direct;
  };

  const std::vector<dag::VertexId>& delivered() const { return delivered_; }
  const std::vector<Commit>& commits() const { return commits_; }
  bool duplicate_delivery() const { return duplicate_delivery_; }
  bool was_delivered(dag::VertexId id) const {
    return delivered_set_.count(id) > 0;
  }

 private:
  Committee committee_;
  sim::Simulator sim_;
  sim::Network net_;
  ScriptedCoin coin_;
  std::unique_ptr<rbc::ReliableBroadcast> rbc_;
  std::unique_ptr<dag::DagBuilder> builder_;
  std::unique_ptr<DagRider> rider_;
  std::vector<dag::VertexId> delivered_;
  std::set<dag::VertexId> delivered_set_;
  std::vector<Commit> commits_;
  bool duplicate_delivery_ = false;
};

// n=7 (f=2, quorum 5) leaves two edge slots to play with per vertex, which
// is what makes exact-threshold support constructible: a vertex needs 5 of
// 7 parents, so its ancestry can avoid at most 2 sources.
const Committee kC7 = Committee::for_n(7);

std::vector<ProcessId> all7() { return {0, 1, 2, 3, 4, 5, 6}; }
/// Edge set avoiding source 0 — the building block of non-supporters.
std::vector<ProcessId> avoid0() { return {1, 2, 3, 4, 5}; }
std::vector<ProcessId> not0() { return {1, 2, 3, 4, 5, 6}; }
/// Round-1 vertices can only reference the hardcoded genesis quorum
/// (sources 0..2f, Alg. 1) — there are no genesis vertices for 5 and 6.
std::vector<ProcessId> genesis5() { return {0, 1, 2, 3, 4}; }

/// Rounds 1..3 of the exact-support scenarios: round 1 fully connected;
/// rounds 2-3 maintain a 5-vertex "avoider lane" (sources 1-5, edges that
/// never reach source 0's round-1 vertex) next to two includer vertices
/// (sources 0 and 6, edges to everything).
void feed_avoider_lane(ScriptedRun& run) {
  run.add_round(1, all7(), genesis5());
  for (Round r = 2; r <= 3; ++r) {
    run.add_round(r, {1, 2, 3, 4, 5}, avoid0());
    run.add_round(r, {0, 6}, all7());
  }
}

TEST(OrderingCharacterization, DirectCommitAtExactQuorumSupport) {
  ScriptedRun run(kC7, {{1, 0}});
  run.begin();
  feed_avoider_lane(run);
  // Round 4: exactly 5 supporters (quorum), 2 avoiders.
  run.add_round(4, {1, 2}, avoid0());
  run.add_round(4, {0, 3, 4, 5, 6}, all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 1u);
  EXPECT_EQ(run.rider().waves_without_direct_commit(), 0u);
  ASSERT_EQ(run.commits().size(), 1u);
  EXPECT_EQ(run.commits()[0].wave, 1u);
  EXPECT_EQ(run.commits()[0].leader, (dag::VertexId{0, 1}));
  EXPECT_TRUE(run.commits()[0].direct);
  // A wave-1 leader's causal history above genesis is just itself.
  ASSERT_EQ(run.delivered().size(), 1u);
  EXPECT_EQ(run.delivered()[0], (dag::VertexId{0, 1}));
  EXPECT_EQ(run.rider().delivered_count(), 1u);
}

TEST(OrderingCharacterization, NoCommitOneBelowQuorumSupport) {
  ScriptedRun run(kC7, {{1, 0}});
  run.begin();
  feed_avoider_lane(run);
  // Round 4: 4 supporters — one below the 2f+1 quorum. No commit.
  run.add_round(4, {1, 2, 3}, avoid0());
  run.add_round(4, {0, 4, 5, 6}, all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 0u);
  EXPECT_EQ(run.rider().waves_evaluated(), 1u);
  EXPECT_EQ(run.rider().waves_without_direct_commit(), 1u);
  EXPECT_TRUE(run.commits().empty());
  EXPECT_TRUE(run.delivered().empty());
}

TEST(OrderingCharacterization, LeaderMissingWaveSkippedHistoryRecovered) {
  // Wave 1's leader (source 0) never produced a round-1 vertex; wave 2
  // commits and its leader's causal history sweeps up wave 1's rounds.
  ScriptedRun run(kC7, {{1, 0}, {2, 1}});
  run.begin();
  run.add_round(1, not0(), genesis5());  // source 0 absent, 6 >= quorum
  for (Round r = 2; r <= 4; ++r) run.add_round(r, all7(), not0());
  for (Round r = 5; r <= 8; ++r) run.add_round(r, all7(), all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 2u);
  EXPECT_EQ(run.rider().waves_without_direct_commit(), 1u);
  ASSERT_EQ(run.commits().size(), 1u);
  EXPECT_EQ(run.commits()[0].wave, 2u);
  EXPECT_EQ(run.commits()[0].leader, (dag::VertexId{1, 5}));
  EXPECT_TRUE(run.commits()[0].direct);
  // History of {1,5}: its 7 round-4 parents, whose {1..6} edges reach 6
  // vertices in each of rounds 1-3 (source 0's round-2/3 vertices exist
  // but are never referenced — without weak edges they stay outside every
  // causal history), plus the leader itself.
  EXPECT_EQ(run.rider().delivered_count(), 7u + 6u * 3u + 1u);
  EXPECT_FALSE(run.was_delivered(dag::VertexId{0, 2}));
  EXPECT_FALSE(run.was_delivered(dag::VertexId{0, 1}));
  EXPECT_TRUE(run.was_delivered(dag::VertexId{3, 4}));
  EXPECT_FALSE(run.duplicate_delivery());
}

TEST(OrderingCharacterization, TransitiveWalkBackRecoversSkippedLeader) {
  // Wave 1's leader exists but has only 4 supporters (no direct commit);
  // wave 2 commits directly and the walk-back adopts wave 1's leader via
  // the strong path, ordering it first with direct=false.
  ScriptedRun run(kC7, {{1, 0}, {2, 2}});
  run.begin();
  feed_avoider_lane(run);
  run.add_round(4, {1, 2, 3}, avoid0());
  run.add_round(4, {0, 4, 5, 6}, all7());
  for (Round r = 5; r <= 8; ++r) run.add_round(r, all7(), all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 2u);
  EXPECT_EQ(run.rider().waves_without_direct_commit(), 1u);
  ASSERT_EQ(run.commits().size(), 2u);
  EXPECT_EQ(run.commits()[0].wave, 1u);
  EXPECT_EQ(run.commits()[0].leader, (dag::VertexId{0, 1}));
  EXPECT_FALSE(run.commits()[0].direct);  // recovered transitively
  EXPECT_EQ(run.commits()[1].wave, 2u);
  EXPECT_EQ(run.commits()[1].leader, (dag::VertexId{2, 5}));
  EXPECT_TRUE(run.commits()[1].direct);
  // First delivery batch is wave 1's leader alone; then wave 2's history
  // (rounds 1-4 complete plus the leader, minus the already-delivered
  // wave-1 leader).
  ASSERT_FALSE(run.delivered().empty());
  EXPECT_EQ(run.delivered()[0], (dag::VertexId{0, 1}));
  EXPECT_EQ(run.rider().delivered_count(), 1u + 28u);
  EXPECT_FALSE(run.duplicate_delivery());
}

TEST(OrderingCharacterization, GcFloorFollowsDecidedWaves) {
  ScriptedRun run(kC7, {{1, 0}, {2, 1}, {3, 2}});
  run.rider().enable_gc(2);
  run.begin();
  run.add_round(1, all7(), genesis5());
  for (Round r = 2; r <= 12; ++r) run.add_round(r, all7(), all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 3u);
  // floor = round(w,1) - depth once positive: wave 2 -> 5-2=3, wave 3 ->
  // 9-2=7 (wave 1's round 1 is too low to move it).
  EXPECT_EQ(run.builder().gc_floor(), 7u);
  EXPECT_EQ(run.builder().dag().compacted_floor(), 7u);
  // Wave 1 delivers its leader; waves 2 and 3 each deliver the 4 preceding
  // full rounds plus their leader minus the prior leader — 28 each.
  EXPECT_EQ(run.rider().delivered_count(), 1u + 28u + 28u);
  EXPECT_FALSE(run.duplicate_delivery());
}

TEST(OrderingCharacterization, RestoredDecidedWaveSuppressesReplay) {
  // A snapshot said wave 1 was decided and its leader delivered: the
  // replayed wave-1 boundary must not be re-evaluated, and the walk-back
  // from wave 2 must stop above it.
  ScriptedRun run(kC7, {{1, 0}, {2, 1}});
  run.rider().restore(/*decided_wave=*/1, /*delivered_count=*/1,
                      {dag::VertexId{0, 1}});
  run.begin();
  run.add_round(1, all7(), genesis5());
  for (Round r = 2; r <= 8; ++r) run.add_round(r, all7(), all7());
  run.finish();

  EXPECT_EQ(run.rider().waves_evaluated(), 1u);  // wave 2 only
  EXPECT_EQ(run.rider().decided_wave(), 2u);
  ASSERT_EQ(run.commits().size(), 1u);
  EXPECT_EQ(run.commits()[0].wave, 2u);
  EXPECT_FALSE(run.was_delivered(dag::VertexId{0, 1}));  // already durable
  EXPECT_TRUE(run.was_delivered(dag::VertexId{1, 5}));
  // Pre-crash count 1 + wave 2's history (rounds 1-4 plus leader, minus
  // the restored leader).
  EXPECT_EQ(run.rider().delivered_count(), 1u + 28u);
  EXPECT_FALSE(run.duplicate_delivery());
}

TEST(OrderingCharacterization, RestoreThenGcFloorNeverRedelivers) {
  // Restored under GC at decided wave 2 (floor 5-2 = 3): ids below the
  // floor are dropped at restore, the rest seed the delivered set. Wave 3
  // then raises the floor to 7 and wave 4 to 11; each rise drops the rounds
  // below it from the set, and the delivered vertices above it (round 8,
  // reached by wave 4's walk) must still count as delivered.
  ScriptedRun run(kC7, {{1, 0}, {2, 1}, {3, 2}, {4, 3}});
  run.rider().enable_gc(2);
  std::vector<dag::VertexId> delivered;
  for (Round r = 1; r <= 4; ++r) {
    for (ProcessId p : all7()) delivered.push_back({p, r});
  }
  delivered.push_back({1, 5});  // wave 2's leader
  run.rider().restore(/*decided_wave=*/2, /*delivered_count=*/29, delivered);
  run.begin();
  run.add_round(1, all7(), genesis5());
  for (Round r = 2; r <= 16; ++r) run.add_round(r, all7(), all7());
  run.finish();

  EXPECT_EQ(run.rider().decided_wave(), 4u);
  EXPECT_EQ(run.builder().gc_floor(), 11u);
  ASSERT_EQ(run.commits().size(), 2u);
  // Wave 3: rounds 5-8 less the restored (1, 5), plus its leader (2, 9);
  // wave 4: rounds 9-12 less (2, 9), plus its leader (3, 13).
  EXPECT_EQ(run.delivered().size(), 28u + 28u);
  EXPECT_EQ(run.rider().delivered_count(), 29u + 28u + 28u);
  EXPECT_FALSE(run.was_delivered(dag::VertexId{1, 5}));
  EXPECT_TRUE(run.was_delivered(dag::VertexId{0, 7}));
  EXPECT_TRUE(run.was_delivered(dag::VertexId{3, 13}));
  EXPECT_FALSE(run.duplicate_delivery());
}

}  // namespace
}  // namespace dr::core
