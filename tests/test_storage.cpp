// Durable storage & crash recovery (DESIGN.md §10): WAL/snapshot codec
// round-trips and corruption handling, VertexStore recovery semantics,
// deterministic builder restore, the GC-floor drop-path stats, and the
// end-to-end acceptance scenario — kill a cluster node mid-wave, restart it
// from its WAL, and watch it rejoin via catch-up sync with the shared
// auditors still green.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <thread>

#include "core/audit.hpp"
#include "dag/builder.hpp"
#include "metrics/counters.hpp"
#include "node/cluster.hpp"
#include "rbc/factory.hpp"
#include "sim/network.hpp"
#include "storage/snapshot.hpp"
#include "storage/store.hpp"
#include "storage/wal.hpp"

namespace dr::storage {
namespace {

using dag::Vertex;
using dag::VertexId;

Committee committee4() { return Committee::for_f(1); }

Bytes sample_payload(std::uint8_t tag, std::size_t size = 48) {
  Bytes b(size, tag);
  for (std::size_t i = 0; i < size; ++i) b[i] ^= static_cast<std::uint8_t>(i);
  return b;
}

WalRecord sample_record(WalRecordType type, ProcessId source, Round round,
                        std::uint8_t tag) {
  WalRecord rec;
  rec.type = type;
  rec.source = source;
  rec.round = round;
  rec.payload = sample_payload(tag);
  return rec;
}

std::string fresh_dir(const std::string& name) {
  // TEST_TMPDIR lets CI point the data directories at a tmpfs mount
  // (gtest's own TempDir() only honors it on Android).
  const char* env = std::getenv("TEST_TMPDIR");
  const std::string base = env != nullptr ? env : testing::TempDir();
  const std::string dir = base + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// --- WAL codec ---

TEST(Wal, RoundTripThroughChunkedFeed) {
  const Committee c = committee4();
  Bytes stream = encode_wal_header(c, /*pid=*/2);
  std::vector<WalRecord> want;
  for (std::uint32_t i = 0; i < 7; ++i) {
    want.push_back(sample_record(
        i % 3 == 0 ? WalRecordType::kProposal : WalRecordType::kVertex,
        i % 3 == 0 ? 2 : static_cast<ProcessId>(i % c.n),
        static_cast<Round>(1 + i), static_cast<std::uint8_t>(i)));
    const Bytes enc = encode_wal_record(want.back());
    stream.insert(stream.end(), enc.begin(), enc.end());
  }

  WalDecoder dec(c, 2);
  // Irregular chunk sizes exercise partial-header and partial-payload paths.
  std::size_t pos = 0, chunk = 1;
  std::vector<WalRecord> got;
  while (pos < stream.size()) {
    const std::size_t len = std::min(chunk, stream.size() - pos);
    dec.feed(BytesView{stream.data() + pos, len});
    pos += len;
    chunk = (chunk * 7 + 3) % 23 + 1;
    while (auto rec = dec.next()) got.push_back(std::move(*rec));
  }
  ASSERT_FALSE(dec.dead()) << dec.error();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(static_cast<int>(got[i].type), static_cast<int>(want[i].type));
    EXPECT_EQ(got[i].source, want[i].source);
    EXPECT_EQ(got[i].round, want[i].round);
    EXPECT_EQ(got[i].payload, want[i].payload);
  }
  EXPECT_EQ(dec.consumed(), stream.size());
}

TEST(Wal, TornTailIsTruncationNotDeath) {
  const Committee c = committee4();
  Bytes stream = encode_wal_header(c, 0);
  const Bytes r1 = encode_wal_record(
      sample_record(WalRecordType::kVertex, 1, 5, 0xAA));
  const Bytes r2 = encode_wal_record(
      sample_record(WalRecordType::kVertex, 3, 6, 0xBB));
  stream.insert(stream.end(), r1.begin(), r1.end());
  const std::size_t clean_end = stream.size();
  // Half of the second record: a torn append, the expected crash artifact.
  stream.insert(stream.end(), r2.begin(),
                r2.begin() + static_cast<std::ptrdiff_t>(r2.size() / 2));

  WalDecoder dec(c, 0);
  dec.feed(BytesView(stream));
  ASSERT_TRUE(dec.next().has_value());
  EXPECT_FALSE(dec.next().has_value());
  // Torn tail != corruption: the decoder stays alive and reports how far the
  // clean prefix reached, which is where the file layer truncates.
  EXPECT_FALSE(dec.dead());
  EXPECT_EQ(dec.consumed(), clean_end);
}

TEST(Wal, CrcFlipKillsTheDecoder) {
  const Committee c = committee4();
  Bytes stream = encode_wal_header(c, 0);
  const Bytes r1 = encode_wal_record(
      sample_record(WalRecordType::kVertex, 1, 5, 0xAA));
  stream.insert(stream.end(), r1.begin(), r1.end());
  stream.back() ^= 0x01;  // bit rot inside the payload

  WalDecoder dec(c, 0);
  dec.feed(BytesView(stream));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.dead());
  EXPECT_FALSE(dec.error().empty());
}

TEST(Wal, ForeignHeaderRejected) {
  const Committee c = committee4();
  // A data dir copied from process 1 must not replay into process 0.
  Bytes stream = encode_wal_header(c, /*pid=*/1);
  WalDecoder dec(c, /*pid=*/0);
  dec.feed(BytesView(stream));
  EXPECT_FALSE(dec.next().has_value());
  EXPECT_TRUE(dec.dead());
}

// --- Snapshot codec ---

Snapshot sample_snapshot() {
  Snapshot s;
  s.committee = committee4();
  s.pid = 3;
  s.gc_floor = 9;
  s.decided_wave = 4;
  for (std::uint32_t i = 0; i < 5; ++i) {
    core::DeliveredRecord d;
    d.block_digest.fill(static_cast<std::uint8_t>(i));
    d.block_size = 100 + i;
    d.round = static_cast<Round>(1 + i);
    d.source = static_cast<ProcessId>(i % 4);
    d.time = 1000 + i;
    s.delivered.push_back(d);
  }
  core::CommitRecord cr;
  cr.wave = 4;
  cr.leader = VertexId{2, 13};
  cr.direct = true;
  cr.time = 9999;
  s.commits.push_back(cr);
  return s;
}

TEST(Snapshot, RoundTrip) {
  const Snapshot want = sample_snapshot();
  const Bytes enc = encode_snapshot(want);
  auto got = decode_snapshot(BytesView(enc));
  ASSERT_TRUE(got.ok()) << got.error();
  const Snapshot& s = got.value();
  EXPECT_EQ(s.committee.n, want.committee.n);
  EXPECT_EQ(s.pid, want.pid);
  EXPECT_EQ(s.gc_floor, want.gc_floor);
  EXPECT_EQ(s.decided_wave, want.decided_wave);
  ASSERT_EQ(s.delivered.size(), want.delivered.size());
  for (std::size_t i = 0; i < s.delivered.size(); ++i) {
    EXPECT_TRUE(s.delivered[i].same_value(want.delivered[i]));
    EXPECT_EQ(s.delivered[i].time, want.delivered[i].time);
  }
  ASSERT_EQ(s.commits.size(), 1u);
  EXPECT_EQ(s.commits[0].wave, want.commits[0].wave);
  EXPECT_EQ(s.commits[0].leader, want.commits[0].leader);
  EXPECT_EQ(s.commits[0].direct, want.commits[0].direct);
}

TEST(Snapshot, AnySingleByteFlipIsRejected) {
  const Bytes enc = encode_snapshot(sample_snapshot());
  // The trailing CRC covers every byte; sample a spread of positions.
  for (std::size_t pos = 0; pos < enc.size(); pos += 7) {
    Bytes bad = enc;
    bad[pos] ^= 0x40;
    EXPECT_FALSE(decode_snapshot(BytesView(bad)).ok())
        << "flip at " << pos << " went undetected";
  }
  EXPECT_FALSE(decode_snapshot(BytesView{enc.data(), enc.size() - 1}).ok());
}

// --- VertexStore file layer ---

Vertex make_vertex(const Committee& c, ProcessId source, Round round,
                   std::uint8_t tag) {
  Vertex v;
  v.source = source;
  v.round = round;
  v.block = sample_payload(tag, 32);
  for (ProcessId p = 0; p < c.quorum(); ++p) v.strong_edges.push_back(p);
  return v;
}

TEST(VertexStore, AppendThenRecover) {
  const Committee c = committee4();
  const std::string dir = fresh_dir("dr_store_append");
  {
    VertexStore store(c, 0, StoreOptions{dir, false});
    const RecoverResult fresh = store.recover();
    EXPECT_TRUE(fresh.wal_clean);
    EXPECT_FALSE(fresh.snapshot.has_value());
    EXPECT_TRUE(fresh.records.empty());
    store.append_vertex(make_vertex(c, 1, 1, 0x11));
    store.append_vertex(make_vertex(c, 0, 1, 0x22));
    store.append_proposal(1, BytesView(sample_payload(0x33)));
  }
  VertexStore store(c, 0, StoreOptions{dir, false});
  const RecoverResult rec = store.recover();
  EXPECT_TRUE(rec.wal_clean) << rec.wal_error;
  ASSERT_EQ(rec.records.size(), 3u);
  EXPECT_EQ(static_cast<int>(rec.records[0].type),
            static_cast<int>(WalRecordType::kVertex));
  EXPECT_EQ(rec.records[0].source, 1u);
  EXPECT_EQ(static_cast<int>(rec.records[2].type),
            static_cast<int>(WalRecordType::kProposal));
  EXPECT_EQ(rec.records[2].round, 1u);
  EXPECT_EQ(store.stats().recovered_vertices, 2u);
  EXPECT_EQ(store.stats().recovered_proposals, 1u);
}

TEST(VertexStore, TornTailIsTruncatedAndAppendsContinue) {
  const Committee c = committee4();
  const std::string dir = fresh_dir("dr_store_torn");
  {
    VertexStore store(c, 0, StoreOptions{dir, false});
    (void)store.recover();
    store.append_vertex(make_vertex(c, 1, 1, 0x11));
  }
  {
    // Simulate a torn write: garbage after the last complete record.
    std::FILE* f = std::fopen((dir + "/wal.bin").c_str(), "ab");
    ASSERT_NE(f, nullptr);
    const char garbage[] = {0x13, 0x00, 0x00};
    std::fwrite(garbage, 1, sizeof garbage, f);
    std::fclose(f);
  }
  {
    VertexStore store(c, 0, StoreOptions{dir, false});
    const RecoverResult rec = store.recover();
    // A torn tail is an expected crash artifact, not corruption: the store
    // repairs the file in place and the recovery still counts as clean.
    EXPECT_TRUE(rec.wal_clean) << rec.wal_error;
    ASSERT_EQ(rec.records.size(), 1u);
    EXPECT_GT(store.stats().recovered_truncated_bytes, 0u);
    // Appends after truncation extend the clean prefix.
    store.append_vertex(make_vertex(c, 2, 2, 0x22));
  }
  VertexStore store(c, 0, StoreOptions{dir, false});
  const RecoverResult rec = store.recover();
  EXPECT_TRUE(rec.wal_clean) << rec.wal_error;
  ASSERT_EQ(rec.records.size(), 2u);
  EXPECT_EQ(rec.records[1].round, 2u);
}

TEST(VertexStore, CompactWritesSnapshotAndPrunesWal) {
  const Committee c = committee4();
  const std::string dir = fresh_dir("dr_store_compact");
  dag::Dag dag(c);
  VertexStore store(c, 0, StoreOptions{dir, false});
  (void)store.recover();
  // Rounds 1..6, full rounds; log everything like the node would.
  for (Round r = 1; r <= 6; ++r) {
    for (ProcessId p = 0; p < c.n; ++p) {
      Vertex v = make_vertex(c, p, r, static_cast<std::uint8_t>(r));
      store.append_vertex(v);
      dag.insert(std::move(v));
    }
  }
  store.append_proposal(7, BytesView(sample_payload(0x77)));

  Snapshot snap;
  snap.committee = c;
  snap.pid = 0;
  snap.gc_floor = 4;
  snap.decided_wave = 1;
  store.compact(snap, dag);
  EXPECT_EQ(store.stats().compactions, 1u);

  VertexStore reopened(c, 0, StoreOptions{dir, false});
  const RecoverResult rec = reopened.recover();
  EXPECT_TRUE(rec.wal_clean) << rec.wal_error;
  ASSERT_TRUE(rec.snapshot.has_value());
  EXPECT_EQ(rec.snapshot->gc_floor, 4u);
  EXPECT_TRUE(reopened.stats().snapshot_loaded);
  bool saw_proposal = false;
  for (const WalRecord& r : rec.records) {
    if (r.type == WalRecordType::kProposal) {
      saw_proposal = true;
      EXPECT_EQ(r.round, 7u);
    } else {
      EXPECT_GE(r.round, 4u) << "compaction must drop rounds below the floor";
    }
  }
  EXPECT_TRUE(saw_proposal) << "pending own proposal lost by compaction";
}

TEST(VertexStore, ForeignSnapshotResetsStorage) {
  const Committee c = committee4();
  const std::string dir = fresh_dir("dr_store_foreign");
  {
    dag::Dag dag(c);
    VertexStore store(c, /*pid=*/1, StoreOptions{dir, false});
    (void)store.recover();
    Vertex v = make_vertex(c, 1, 1, 0x11);
    store.append_vertex(v);
    dag.insert(std::move(v));
    Snapshot snap;
    snap.committee = c;
    snap.pid = 1;
    store.compact(snap, dag);
  }
  // Same directory, different process id: replaying another process's
  // history would let this node equivocate. Everything is discarded.
  VertexStore store(c, /*pid=*/2, StoreOptions{dir, false});
  const RecoverResult rec = store.recover();
  EXPECT_FALSE(rec.snapshot.has_value());
  EXPECT_TRUE(rec.records.empty());
}

}  // namespace
}  // namespace dr::storage

namespace dr::dag {
namespace {

/// Minimal RBC stub: counts broadcasts, delivers only what the test injects.
class NoopRbc final : public rbc::ReliableBroadcast {
 public:
  void set_deliver(DeliverFn fn) override { deliver_ = std::move(fn); }
  void broadcast(Round, net::Payload) override { ++broadcasts; }
  void inject(ProcessId source, Round r, Bytes payload) {
    deliver_(source, r, std::move(payload));
  }
  std::uint64_t broadcasts = 0;

 private:
  DeliverFn deliver_;
};

// Satellite regression: both GC drop paths are counted — a delivery below
// the floor, and a vertex buffered across an apply_gc_floor call.
TEST(BuilderGcStats, DropPathsAreCounted) {
  const Committee c = Committee::for_f(1);
  NoopRbc rbc;
  DagBuilder builder(c, 0, rbc, BuilderOptions{.auto_blocks = true});
  builder.start();  // advances to round 1, proposes (NoopRbc swallows it)
  ASSERT_EQ(builder.current_round(), 1u);

  // A round-2 vertex parks in the buffer (round 2 > current round 1).
  Vertex buffered;
  buffered.source = 1;
  buffered.round = 2;
  buffered.block = Bytes(8, 0xCD);
  for (ProcessId p = 0; p < c.quorum(); ++p) {
    buffered.strong_edges.push_back(p);
  }
  rbc.inject(1, 2, buffered.serialize());
  ASSERT_EQ(builder.buffer_size(), 1u);
  ASSERT_EQ(builder.stats().gc_dropped_buffered, 0u);

  // The floor rises past the buffered vertex: it must be dropped AND counted.
  builder.apply_gc_floor(3);
  EXPECT_EQ(builder.buffer_size(), 0u);
  EXPECT_EQ(builder.stats().gc_dropped_buffered, 1u);

  // A delivery below the floor is rejected on arrival and counted.
  Vertex late;
  late.source = 2;
  late.round = 1;
  late.block = Bytes(8, 0xEF);
  for (ProcessId p = 0; p < c.quorum(); ++p) late.strong_edges.push_back(p);
  rbc.inject(2, 1, late.serialize());
  EXPECT_EQ(builder.stats().gc_dropped_deliveries, 1u);
  EXPECT_EQ(builder.buffer_size(), 0u);
}

// Laggard-aware GC holdback: the floor cap keeps history a slow peer still
// needs, and gc_max_holdback_rounds bounds how much it can pin.
TEST(BuilderGcStats, FloorCapHoldsHistoryForLaggards) {
  const Committee c = Committee::for_f(1);
  NoopRbc rbc;
  DagBuilder builder(c, 0, rbc);
  builder.set_gc_floor_cap(10);
  builder.apply_gc_floor(40);  // depth-based target 40, cap holds it at 10
  EXPECT_EQ(builder.gc_floor(), 10u);
  EXPECT_EQ(builder.stats().gc_floor_holds, 1u);

  builder.set_gc_floor_cap(dag::kNoGcFloorCap);  // the laggard caught up
  builder.apply_gc_floor(40);
  EXPECT_EQ(builder.gc_floor(), 40u);
  EXPECT_EQ(builder.stats().gc_floor_holds, 1u);

  // A cap pinned far below cannot hold more than gc_max_holdback_rounds.
  NoopRbc rbc2;
  DagBuilder bounded(c, 0, rbc2,
                     BuilderOptions{.gc_max_holdback_rounds = 16});
  bounded.set_gc_floor_cap(1);
  bounded.apply_gc_floor(100);
  EXPECT_EQ(bounded.gc_floor(), 84u);
  EXPECT_EQ(bounded.stats().gc_floor_holds, 1u);
}

// The per-source progress estimate that feeds the cap: any validated
// delivery path (live or sync) advances highest_round_from for its source.
TEST(BuilderGcStats, HighestRoundFromTracksDeliveries) {
  const Committee c = Committee::for_f(1);
  NoopRbc rbc;
  DagBuilder builder(c, 0, rbc, BuilderOptions{.auto_blocks = true});
  builder.start();
  EXPECT_EQ(builder.highest_round_from(1), 0u);

  Vertex v;
  v.source = 1;
  v.round = 3;
  v.block = Bytes(8, 0xAB);
  for (ProcessId p = 0; p < c.quorum(); ++p) v.strong_edges.push_back(p);
  rbc.inject(1, 3, v.serialize());  // buffered (round 3 > current round 1)
  EXPECT_EQ(builder.highest_round_from(1), 3u);
  EXPECT_EQ(builder.highest_round_from(2), 0u);
}

// Deterministic restore: replaying one builder's DAG through the restore API
// reproduces its round counter and vertex count without a single broadcast.
TEST(BuilderRestore, ReplayReachesTheSameFrontier) {
  const Committee c = Committee::for_f(1);
  sim::Simulator sim(11);
  sim::Network net(sim, c, std::make_unique<sim::UniformDelay>(1, 10));
  const rbc::RbcFactory factory = rbc::make_factory(rbc::RbcKind::kOracle);
  std::vector<std::unique_ptr<rbc::ReliableBroadcast>> rbcs;
  std::vector<std::unique_ptr<DagBuilder>> builders;
  for (ProcessId p = 0; p < c.n; ++p) {
    rbcs.push_back(factory(net, p, 11));
    builders.push_back(std::make_unique<DagBuilder>(
        c, p, *rbcs[p],
        BuilderOptions{.auto_blocks = true, .auto_block_size = 8}));
  }
  for (auto& b : builders) b->start();
  ASSERT_TRUE(sim.run_until(
      [&] { return builders[0]->current_round() >= 13; }, 5'000'000));

  const DagBuilder& live = *builders[0];
  const Dag& src = live.dag();

  NoopRbc noop;
  DagBuilder restored(c, 0, noop,
                      BuilderOptions{.auto_blocks = true, .auto_block_size = 8});
  std::uint64_t waves_fired = 0;
  restored.set_wave_ready([&](Wave) { ++waves_fired; });
  restored.begin_restore(0);
  for (Round r = 1; r <= src.max_round(); ++r) {
    for (ProcessId p : src.round_sources(r)) {
      restored.restore_deliver(p, r, src.get(VertexId{p, r})->serialize());
    }
  }
  restored.finish_restore();

  EXPECT_EQ(restored.current_round(), live.current_round());
  EXPECT_EQ(restored.dag().vertex_count(), src.vertex_count());
  EXPECT_EQ(restored.stats().restored_vertices, src.vertex_count() - c.quorum());
  EXPECT_GE(waves_fired, live.current_round() / kRoundsPerWave);
  EXPECT_EQ(noop.broadcasts, 0u) << "restore must not broadcast";

  // Going live at the restored frontier re-opens the round with a proposal.
  restored.start();
  EXPECT_GE(noop.broadcasts, 1u);
}

}  // namespace
}  // namespace dr::dag

namespace dr::node {
namespace {

std::uint64_t counter_value(const metrics::Counters& counters,
                            const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " missing";
  return 0;
}

// Recovery refuses a log written under the other ordering personality
// (DESIGN.md §14): a snapshot stamped Bullshark / 2-round waves must abort a
// DagRider node at start-up instead of seeding its wave state. The abort
// fires on the node thread, hence the threadsafe death-test style.
TEST(StorageRecoveryDeathTest, RefusesSnapshotOfOtherPersonality) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const Committee committee = Committee::for_f(1);
  const std::string dir = storage::fresh_dir("dr_cross_personality");
  {
    storage::VertexStore store(committee, 0, storage::StoreOptions{dir, false});
    (void)store.recover();
    storage::Snapshot snap;
    snap.committee = committee;
    snap.pid = 0;
    snap.ordering = static_cast<std::uint8_t>(core::OrderingKind::kBullshark);
    snap.rounds_per_wave = 2;
    store.compact(snap, dag::Dag(committee));
  }
  NodeOptions opts;  // DagRider, 4-round waves
  opts.coin_mode = core::CoinMode::kLocal;
  opts.wal_dir = dir;
  EXPECT_DEATH(
      {
        net::InProcNetwork net(committee);
        Node node(net.endpoint(0), nullptr, opts);
        node.start();
        std::this_thread::sleep_for(std::chrono::seconds(5));
      },
      "different ordering personality");
}

// The ISSUE's acceptance scenario: kill a node mid-run, restart it from its
// WAL, and require it to rejoin through catch-up sync and keep committing,
// with the cross-node auditors green over the combined history.
TEST(StorageRecovery, KilledNodeRejoinsViaWalAndCatchup) {
  const Committee committee = Committee::for_f(1);
  const std::string base = storage::fresh_dir("dr_cluster_restart");
  NodeOptions opts;
  opts.seed = 21;
  opts.wal_dir = base;
  Cluster cluster(committee, opts);
  cluster.start();
  ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 6ull,
                                         std::chrono::minutes(2)));

  cluster.stop_node(2);
  // The survivors (still a 2f+1 quorum) must keep committing while node 2
  // is down — this is the window node 2 will have to sync back.
  const std::uint64_t down_target =
      cluster.node(0).delivered_count() + committee.n * 6ull;
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::minutes(2);
  while (cluster.node(0).delivered_count() < down_target ||
         cluster.node(1).delivered_count() < down_target ||
         cluster.node(3).delivered_count() < down_target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "survivors stalled with one node down";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  cluster.restart_node(2);
  // The restarted node must catch up past everything it missed and keep
  // pace with live commits on top.
  ASSERT_TRUE(cluster.wait_all_delivered(down_target + committee.n * 4ull,
                                         std::chrono::minutes(3)));
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;

  const metrics::Counters counters = cluster.node(2).counters();
  EXPECT_GT(counter_value(counters, "builder.restored_vertices"), 0u)
      << "restart did not replay the WAL";
  EXPECT_GT(counter_value(counters, "catchup.vertices_accepted"), 0u)
      << "restart did not use catch-up sync for the missed window";
  EXPECT_GT(counter_value(counters, "store.recovered_vertices"), 0u);
}

// Full power-cycle with GC + compaction: a second cluster over the same data
// directories recovers every node from snapshot + WAL, resumes committing,
// and the restored logs still satisfy the auditors end to end.
TEST(StorageRecovery, FullClusterRestartFromSnapshots) {
  const Committee committee = Committee::for_f(1);
  const std::string base = storage::fresh_dir("dr_cluster_powercycle");
  NodeOptions opts;
  opts.seed = 33;
  opts.wal_dir = base;
  // Deep enough that the servable-history window survives restart skew (a
  // node that restores a couple of rounds short must fetch them before the
  // resumed peers' GC floors pass those rounds), shallow enough that the
  // first run still compacts and writes snapshots.
  opts.gc_depth_rounds = 32;

  std::uint64_t first_run_delivered = 0;
  {
    Cluster cluster(committee, opts);
    cluster.start();
    // Run long enough that GC fires and compaction writes snapshots.
    ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 60ull,
                                           std::chrono::minutes(2)));
    cluster.stop();
    first_run_delivered = cluster.node(0).delivered_count();
    const auto violation =
        core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
    ASSERT_FALSE(violation.has_value()) << *violation;
  }

  Cluster cluster(committee, opts);
  cluster.start();
  ASSERT_TRUE(cluster.wait_all_delivered(
      first_run_delivered + committee.n * 8ull, std::chrono::minutes(3)));
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;
  // At least one node actually recovered from a snapshot (GC ran long
  // enough), and all of them replayed vertices from their WALs.
  bool any_snapshot = false;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    const metrics::Counters counters = cluster.node(pid).counters();
    EXPECT_GT(counter_value(counters, "builder.restored_vertices"), 0u);
    if (counter_value(counters, "store.snapshot_loaded") > 0) {
      any_snapshot = true;
    }
  }
  EXPECT_TRUE(any_snapshot);
}

}  // namespace
}  // namespace dr::node
