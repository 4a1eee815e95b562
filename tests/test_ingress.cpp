// Client ingress tier tests (DESIGN.md §13): tx digest identity, the wire
// codec's defensive parsing, the sharded mempool's admission pipeline
// (dedup, backpressure, commit window, origin re-homing), the TCP
// server/client pair end to end, commit acks through a live cluster, the
// kill-restart dedup contract after WAL recovery, the seeded ingress soak,
// and a loadgen smoke with thousands of logical clients.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <unordered_map>

#include "core/audit.hpp"
#include "ingress/client.hpp"
#include "ingress/loadgen.hpp"
#include "ingress/mempool.hpp"
#include "ingress/server.hpp"
#include "ingress/wire.hpp"
#include "node/cluster.hpp"
#include "node/soak.hpp"
#include "txpool/transaction.hpp"

namespace dr::ingress {
namespace {

txpool::Transaction make_tx(std::uint64_t client_id, std::uint64_t tx_id,
                            std::uint8_t fill = 0xab, std::size_t size = 24) {
  txpool::Transaction tx;
  tx.id = compose_tx_id(client_id, tx_id);
  tx.submit_time = 0;
  tx.payload = Bytes(size, fill);
  return tx;
}

std::string fresh_dir(const std::string& name) {
  const char* env = std::getenv("TEST_TMPDIR");
  const std::string base = env != nullptr ? env : testing::TempDir();
  const std::string dir = base + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

/// Pumps `client` until `done()` or the deadline; fails the test on timeout.
void pump_until(Client& client, const std::function<bool()>& done,
                std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!done()) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "client pump timed out";
    client.process(5);
  }
}

// --- tx digest identity ---

TEST(TxDigest, ExcludesServerStampedSubmitTime) {
  txpool::Transaction a = make_tx(7, 1);
  txpool::Transaction b = make_tx(7, 1);
  a.submit_time = 111;
  b.submit_time = 999'999;  // resubmission stamped much later
  EXPECT_EQ(tx_digest(a), tx_digest(b));
}

TEST(TxDigest, SensitiveToIdAndPayload) {
  const txpool::Transaction base = make_tx(7, 1);
  txpool::Transaction other_id = make_tx(7, 2);
  txpool::Transaction other_payload = make_tx(7, 1, 0xcd);
  EXPECT_NE(tx_digest(base), tx_digest(other_id));
  EXPECT_NE(tx_digest(base), tx_digest(other_payload));
}

TEST(TxDigest, ComposeTxIdIsDeterministicAndSpreads) {
  EXPECT_EQ(compose_tx_id(3, 9), compose_tx_id(3, 9));
  EXPECT_NE(compose_tx_id(3, 9), compose_tx_id(9, 3));
  EXPECT_NE(compose_tx_id(0, 0), compose_tx_id(0, 1));
}

TEST(TxDigest, LoadgenPayloadRegeneratesByteIdentically) {
  const Bytes a = loadgen_payload(42, 17, 64);
  const Bytes b = loadgen_payload(42, 17, 64);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.size(), 64u);
  EXPECT_NE(a, loadgen_payload(42, 18, 64));
  // Minimum size carries the two ids.
  EXPECT_EQ(loadgen_payload(1, 2, 0).size(), 16u);
}

// --- wire codec ---

TEST(IngressWire, HelloRoundTrip) {
  const Bytes ch = encode_client_hello(ClientHello{});
  ASSERT_EQ(ch.size(), kClientHelloBytes);
  const auto got = decode_client_hello(BytesView(ch));
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().magic, kIngressMagic);

  ServerHello sh;
  sh.status = HelloStatus::kOk;
  sh.session_id = 77;
  const Bytes enc = encode_server_hello(sh);
  ASSERT_EQ(enc.size(), kServerHelloBytes);
  const auto back = decode_server_hello(BytesView(enc));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().session_id, 77u);
  EXPECT_EQ(back.value().status, HelloStatus::kOk);
}

TEST(IngressWire, HelloRejectsBadMagicAndVersion) {
  Bytes ch = encode_client_hello(ClientHello{});
  ch[0] ^= 0xff;
  EXPECT_FALSE(decode_client_hello(BytesView(ch)).ok());

  ClientHello v2;
  v2.version = 2;
  EXPECT_FALSE(decode_client_hello(BytesView(encode_client_hello(v2))).ok());
  EXPECT_FALSE(decode_client_hello(BytesView()).ok());
}

TEST(IngressWire, MessageRoundTrips) {
  SubmitBatch batch;
  batch.client_id = 5;
  batch.txs.push_back(TxSubmit{1, Bytes{0x01, 0x02}});
  batch.txs.push_back(TxSubmit{2, Bytes{}});
  const auto b = decode_ingress_message(BytesView(encode_submit_batch(batch)));
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(b.value().batch.has_value());
  EXPECT_EQ(b.value().batch->client_id, 5u);
  ASSERT_EQ(b.value().batch->txs.size(), 2u);
  EXPECT_EQ(b.value().batch->txs[0].payload, (Bytes{0x01, 0x02}));

  SubmitReply reply;
  reply.client_id = 5;
  reply.entries.push_back(ReplyEntry{1, SubmitStatus::kAccepted});
  reply.entries.push_back(ReplyEntry{2, SubmitStatus::kShardFull});
  const auto r = decode_ingress_message(BytesView(encode_submit_reply(reply)));
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value().reply.has_value());
  EXPECT_EQ(r.value().reply->entries[1].status, SubmitStatus::kShardFull);

  CommitAcks acks;
  acks.acks.push_back(AckEntry{5, 1, 1234});
  const auto a = decode_ingress_message(BytesView(encode_commit_acks(acks)));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(a.value().acks.has_value());
  EXPECT_EQ(a.value().acks->acks[0].latency_us, 1234u);
}

TEST(IngressWire, MessageRejectsMalformedInput) {
  // Unknown tag.
  EXPECT_FALSE(decode_ingress_message(BytesView(Bytes{0x09})).ok());
  // Empty input.
  EXPECT_FALSE(decode_ingress_message(BytesView()).ok());

  SubmitBatch batch;
  batch.client_id = 1;
  batch.txs.push_back(TxSubmit{1, Bytes{0xaa}});
  Bytes enc = encode_submit_batch(batch);
  // Truncation at every split point must fail crisply.
  for (std::size_t cut = 0; cut < enc.size(); ++cut) {
    EXPECT_FALSE(
        decode_ingress_message(BytesView(enc.data(), cut)).ok())
        << "cut=" << cut;
  }
  // Trailing garbage.
  Bytes trailing = enc;
  trailing.push_back(0x00);
  EXPECT_FALSE(decode_ingress_message(BytesView(trailing)).ok());

  // Invalid status byte inside a reply.
  SubmitReply reply;
  reply.client_id = 1;
  reply.entries.push_back(ReplyEntry{1, SubmitStatus::kAccepted});
  Bytes renc = encode_submit_reply(reply);
  renc.back() = 0x77;
  EXPECT_FALSE(decode_ingress_message(BytesView(renc)).ok());
}

// --- sharded mempool admission pipeline ---

TEST(ShardedMempool, DedupAcrossShardsAndLifecycle) {
  ShardedMempool pool(MempoolOptions{.shards = 4});
  // A spread of txs lands on every shard; resubmitting any of them dedups
  // no matter which shard owns the digest.
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(pool.submit(make_tx(1, i), TxOrigin{}), SubmitStatus::kAccepted);
    EXPECT_EQ(pool.submit(make_tx(1, i), TxOrigin{}),
              SubmitStatus::kDuplicatePending);
  }
  EXPECT_EQ(pool.pending(), 64u);

  // Drained txs stay deduped (in-flight), and commit moves them into the
  // recently-committed window.
  const auto drained = pool.drain(64);
  ASSERT_EQ(drained.size(), 64u);
  EXPECT_EQ(pool.pending(), 0u);
  EXPECT_EQ(pool.in_flight(), 64u);
  EXPECT_EQ(pool.submit(make_tx(1, 0), TxOrigin{}),
            SubmitStatus::kDuplicatePending);
  for (const auto& tx : drained) {
    EXPECT_FALSE(pool.mark_committed(tx_digest(tx)).has_value());  // no origin
  }
  EXPECT_EQ(pool.in_flight(), 0u);
  EXPECT_EQ(pool.submit(make_tx(1, 0), TxOrigin{}),
            SubmitStatus::kDuplicateCommitted);
  EXPECT_TRUE(pool.recently_committed(tx_digest(make_tx(1, 0))));
}

TEST(ShardedMempool, ReturnsOriginOnCommitAndRehomesOnResubmit) {
  ShardedMempool pool(MempoolOptions{.shards = 2});
  TxOrigin origin{.session_id = 10, .client_id = 3, .tx_id = 9,
                  .submit_us = 100};
  ASSERT_EQ(pool.submit(make_tx(3, 9), origin), SubmitStatus::kAccepted);

  // Reconnected client (new session 20) resubmits the same logical tx: the
  // stored origin re-homes so the eventual ack follows the client.
  TxOrigin rehomed{.session_id = 20, .client_id = 3, .tx_id = 9,
                   .submit_us = 200};
  ASSERT_EQ(pool.submit(make_tx(3, 9), rehomed),
            SubmitStatus::kDuplicatePending);

  const auto got = pool.mark_committed(tx_digest(make_tx(3, 9)));
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->session_id, 20u);
  EXPECT_EQ(got->client_id, 3u);
  EXPECT_EQ(got->tx_id, 9u);
  // A second commit of the same digest is foreign (already in the window).
  EXPECT_FALSE(pool.mark_committed(tx_digest(make_tx(3, 9))).has_value());
}

TEST(ShardedMempool, BusyWatermarkThenShardCapacity) {
  MempoolOptions opts;
  opts.shards = 2;
  opts.shard_capacity = 64;
  opts.busy_watermark = 0.5;  // busy at 64 pending
  ShardedMempool pool(opts);

  std::uint64_t accepted = 0, id = 0;
  while (accepted < 64) {
    if (pool.submit(make_tx(1, id++), TxOrigin{}) == SubmitStatus::kAccepted) {
      ++accepted;
    }
  }
  EXPECT_EQ(pool.submit(make_tx(1, id), TxOrigin{}), SubmitStatus::kBusy);
  EXPECT_TRUE(pool.busy());
  EXPECT_GE(pool.stats().rejected_busy, 1u);

  // The hard per-shard bound is kShardFull, distinguishable from kBusy:
  // reachable with a watermark above 1.0 (disabled) and a tiny shard.
  MempoolOptions tiny;
  tiny.shards = 1;
  tiny.shard_capacity = 4;
  tiny.busy_watermark = 10.0;
  ShardedMempool small(tiny);
  for (std::uint64_t i = 0; i < 4; ++i) {
    ASSERT_EQ(small.submit(make_tx(2, i), TxOrigin{}),
              SubmitStatus::kAccepted);
  }
  EXPECT_EQ(small.submit(make_tx(2, 99), TxOrigin{}),
            SubmitStatus::kShardFull);
}

TEST(ShardedMempool, RejectsOversizedAndBoundsCommittedWindow) {
  MempoolOptions opts;
  opts.shards = 1;
  opts.max_tx_bytes = 32;
  opts.committed_window = 8;
  ShardedMempool pool(opts);

  EXPECT_EQ(pool.submit(make_tx(1, 0, 0xab, 33), TxOrigin{}),
            SubmitStatus::kTooLarge);

  // Push far more commits through than the window holds: the oldest digests
  // are evicted and a very late replay is re-accepted (the documented bound).
  for (std::uint64_t i = 0; i < 32; ++i) {
    ASSERT_EQ(pool.submit(make_tx(1, i), TxOrigin{}), SubmitStatus::kAccepted);
    (void)pool.drain(1);
    (void)pool.mark_committed(tx_digest(make_tx(1, i)));
  }
  EXPECT_GE(pool.stats().window_evictions, 24u);
  EXPECT_FALSE(pool.recently_committed(tx_digest(make_tx(1, 0))));
  EXPECT_TRUE(pool.recently_committed(tx_digest(make_tx(1, 31))));
  EXPECT_EQ(pool.submit(make_tx(1, 0), TxOrigin{}), SubmitStatus::kAccepted);
}

TEST(ShardedMempool, DrainIsRoundRobinAndBounded) {
  ShardedMempool pool(MempoolOptions{.shards = 4});
  for (std::uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(pool.submit(make_tx(1, i), TxOrigin{}), SubmitStatus::kAccepted);
  }
  std::size_t total = 0;
  while (true) {
    const auto got = pool.drain(7);
    EXPECT_LE(got.size(), 7u);
    if (got.empty()) break;
    total += got.size();
  }
  EXPECT_EQ(total, 100u);
  EXPECT_EQ(pool.in_flight(), 100u);
}

// --- server + client end to end (standalone, no consensus) ---

TEST(IngressServer, SubmitReplyAndCommitAckRoundTrip) {
  ShardedMempool pool;
  IngressServer server(pool, ServerOptions{});
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  Client client(Client::Options{"127.0.0.1", server.port(), 256});
  ASSERT_TRUE(client.connect(2'000));
  EXPECT_NE(client.session_id(), 0u);

  std::unordered_map<std::uint64_t, SubmitStatus> replies;
  std::uint64_t reply_count = 0, acks = 0;
  client.on_reply = [&](std::uint64_t, std::uint64_t tx_id,
                        SubmitStatus status) {
    ++reply_count;
    replies[tx_id] = status;  // the dup's verdict overwrites tx 0's
  };
  client.on_ack = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
    ++acks;
  };

  for (std::uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(client.submit(4, i, BytesView(loadgen_payload(4, i, 32))));
  }
  ASSERT_TRUE(client.submit(4, 0, BytesView(loadgen_payload(4, 0, 32))));

  pump_until(client, [&] { return reply_count == 9; },
             std::chrono::seconds(5));
  for (std::uint64_t i = 1; i < 8; ++i) {
    EXPECT_EQ(replies[i], SubmitStatus::kAccepted);
  }
  // The duplicate resubmission of tx 0 re-homed onto this same session.
  EXPECT_EQ(replies[0], SubmitStatus::kDuplicatePending);

  // Play the node thread: drain, "commit", route acks back.
  const auto drained = pool.drain(64);
  ASSERT_EQ(drained.size(), 8u);
  for (const auto& tx : drained) {
    const auto origin = pool.mark_committed(tx_digest(tx));
    ASSERT_TRUE(origin.has_value());
    server.complete(*origin);
  }
  pump_until(client, [&] { return acks == 8; }, std::chrono::seconds(5));
  EXPECT_GT(server.ack_latency().total(), 0u);

  client.close();
  server.stop();
}

TEST(IngressServer, BusyHookTurnsBatchesAway) {
  ShardedMempool pool;
  IngressServer server(pool, ServerOptions{});
  server.set_busy_hook([] { return true; });  // DagBuilder "very behind"
  ASSERT_TRUE(server.start());

  Client client(Client::Options{"127.0.0.1", server.port(), 256});
  ASSERT_TRUE(client.connect(2'000));
  std::uint64_t busy = 0;
  client.on_reply = [&](std::uint64_t, std::uint64_t, SubmitStatus status) {
    if (status == SubmitStatus::kBusy) ++busy;
  };
  ASSERT_TRUE(client.submit(1, 1, BytesView(loadgen_payload(1, 1, 32))));
  pump_until(client, [&] { return busy == 1; }, std::chrono::seconds(5));
  EXPECT_EQ(pool.pending(), 0u);

  client.close();
  server.stop();
}

TEST(IngressServer, RejectsOverCapacitySessionsWithFullHello) {
  ShardedMempool pool;
  ServerOptions opts;
  opts.max_sessions = 1;
  IngressServer server(pool, opts);
  ASSERT_TRUE(server.start());

  Client first(Client::Options{"127.0.0.1", server.port(), 256});
  ASSERT_TRUE(first.connect(2'000));
  Client second(Client::Options{"127.0.0.1", server.port(), 256});
  EXPECT_FALSE(second.connect(2'000));  // kFull hello, then close

  first.close();
  server.stop();
}

// --- commit acks through a live cluster ---

TEST(IngressCluster, ClientTxsCommitAndAckThroughNode) {
  node::NodeOptions opts;
  opts.seed = 99;
  opts.ingress_enable = true;
  node::Cluster cluster(Committee::for_n(4), opts);
  cluster.start();
  ASSERT_NE(cluster.ingress_port(0), 0);

  Client client(Client::Options{"127.0.0.1", cluster.ingress_port(0), 256});
  ASSERT_TRUE(client.connect(2'000));

  constexpr std::uint64_t kTxs = 200;
  std::uint64_t acked = 0;
  client.on_ack = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
    ++acked;
  };
  for (std::uint64_t i = 0; i < kTxs; ++i) {
    ASSERT_TRUE(client.submit(6, i, BytesView(loadgen_payload(6, i, 32))));
  }
  pump_until(client, [&] { return acked == kTxs; }, std::chrono::minutes(1));
  client.close();
  cluster.stop();

  EXPECT_FALSE(core::audit_logs(cluster.delivered_logs(),
                                cluster.commit_logs())
                   .has_value());
}

// --- kill-restart: the WAL-recovery dedup contract ---

TEST(IngressCluster, RestartedNodeDedupsCommittedAndServesFreshTxs) {
  const std::string wal = fresh_dir("ingress-restart");
  node::NodeOptions opts;
  opts.seed = 7;
  opts.ingress_enable = true;
  opts.wal_dir = wal;
  node::Cluster cluster(Committee::for_n(4), opts);

  // Tally every committed tx id at surviving node 0: the exactly-once
  // assertion at the end is the "no double commit after recovery" check.
  std::mutex tally_mu;
  std::unordered_map<std::uint64_t, std::uint64_t> tally;
  cluster.node(0).set_app_deliver(
      [&](const Bytes& block, Round, ProcessId, std::uint64_t) {
        if (auto txs = txpool::decode_block(BytesView(block))) {
          std::lock_guard<std::mutex> lk(tally_mu);
          for (const auto& tx : txs.value()) ++tally[tx.id];
        }
      });
  cluster.start();

  const std::uint16_t port = cluster.ingress_port(1);
  ASSERT_NE(port, 0);
  constexpr std::uint64_t kBatchA = 100;
  constexpr std::uint64_t kBatchB = 100;

  {  // Batch A: submit through node 1 and wait until fully committed.
    Client client(Client::Options{"127.0.0.1", port, 256});
    ASSERT_TRUE(client.connect(2'000));
    std::uint64_t acked = 0;
    client.on_ack = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
      ++acked;
    };
    for (std::uint64_t i = 0; i < kBatchA; ++i) {
      ASSERT_TRUE(client.submit(8, i, BytesView(loadgen_payload(8, i, 32))));
    }
    pump_until(client, [&] { return acked == kBatchA; },
               std::chrono::minutes(1));
    client.close();
  }

  const std::uint64_t delivered_before =
      cluster.node(1).delivered_count();
  cluster.stop_node(1);
  cluster.restart_node(1);
  // Same pre-picked port after restart — clients redial what they know.
  ASSERT_EQ(cluster.ingress_port(1), port);
  // Let WAL replay finish before the client comes back: recovery re-runs
  // the deliver path, which rebuilds the recently-committed window.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::minutes(1);
  while (cluster.node(1).delivered_count() < delivered_before) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "restarted node did not recover its delivered log";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  {  // Reconnect: resubmit all of batch A, then submit fresh batch B.
    Client client(Client::Options{"127.0.0.1", port, 256});
    ASSERT_TRUE(client.connect(5'000));
    std::uint64_t dup_committed = 0, acked = 0;
    client.on_reply = [&](std::uint64_t, std::uint64_t,
                          SubmitStatus status) {
      if (status == SubmitStatus::kDuplicateCommitted) ++dup_committed;
    };
    client.on_ack = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
      ++acked;
    };
    for (std::uint64_t i = 0; i < kBatchA; ++i) {
      ASSERT_TRUE(client.submit(8, i, BytesView(loadgen_payload(8, i, 32))));
    }
    // Every resubmit must bounce off the recovered committed window.
    pump_until(client, [&] { return dup_committed == kBatchA; },
               std::chrono::minutes(1));

    for (std::uint64_t i = 0; i < kBatchB; ++i) {
      ASSERT_TRUE(client.submit(9, i, BytesView(loadgen_payload(9, i, 32))));
    }
    pump_until(client, [&] { return acked == kBatchB; },
               std::chrono::minutes(1));
    client.close();
  }

  cluster.stop();
  EXPECT_FALSE(core::audit_logs(cluster.delivered_logs(),
                                cluster.commit_logs())
                   .has_value());
  std::lock_guard<std::mutex> lk(tally_mu);
  std::uint64_t batch_a_seen = 0, batch_b_seen = 0;
  for (const auto& [id, count] : tally) {
    EXPECT_EQ(count, 1u) << "tx " << id << " committed " << count
                         << " times";
  }
  for (std::uint64_t i = 0; i < kBatchA; ++i) {
    batch_a_seen += tally.count(compose_tx_id(8, i));
  }
  for (std::uint64_t i = 0; i < kBatchB; ++i) {
    batch_b_seen += tally.count(compose_tx_id(9, i));
  }
  EXPECT_EQ(batch_a_seen, kBatchA);
  EXPECT_EQ(batch_b_seen, kBatchB);
  std::filesystem::remove_all(wal);
}

// --- kill-restart: the at-least-once race on restored proposals ---

// ROADMAP item 1 (closed by this test's fix): a client tx drained into a
// proposal that was WAL'd but never disseminated — staged here with a mute
// proposer, whose persist-before-send logging runs but whose broadcasts are
// swallowed — is invisible to the cluster, so the client resubmits after
// the node restarts. Before the fix the restarted node's empty mempool
// re-accepted the resubmission into a second block while WAL replay
// re-broadcast the original proposal: the same logical tx a_delivered
// twice. Recovery now seeds the mempool's in-flight set from restored
// undelivered proposals, so the resubmission dedups against the in-WAL
// copy and the commit tally stays exactly-once.
TEST(IngressCluster, ResubmitAfterRestartOfMuteProposerDeliversExactlyOnce) {
  const std::string wal = fresh_dir("ingress-restart-race");
  node::NodeOptions opts;
  opts.seed = 13;
  opts.ingress_enable = true;
  opts.wal_dir = wal;
  node::ClusterTweaks tweaks;
  tweaks.profiles.assign(4, core::ByzantineProfile::kHonest);
  tweaks.profiles[1] = core::ByzantineProfile::kMute;
  node::Cluster cluster(Committee::for_n(4), opts, tweaks);

  // Exactly-once tally at honest node 0, keyed by logical tx id.
  std::mutex tally_mu;
  std::unordered_map<std::uint64_t, std::uint64_t> tally;
  cluster.node(0).set_app_deliver(
      [&](const Bytes& block, Round, ProcessId, std::uint64_t) {
        if (auto txs = txpool::decode_block(BytesView(block))) {
          std::lock_guard<std::mutex> lk(tally_mu);
          for (const auto& tx : txs.value()) ++tally[tx.id];
        }
      });
  cluster.start();

  const std::uint16_t port = cluster.ingress_port(1);
  ASSERT_NE(port, 0);
  constexpr std::uint64_t kProbe = 10;

  {  // Submit probes through the mute node: accepted, drained into a WAL'd
     // proposal, never disseminated.
    Client client(Client::Options{"127.0.0.1", port, 256});
    ASSERT_TRUE(client.connect(2'000));
    std::uint64_t accepted = 0;
    client.on_reply = [&](std::uint64_t, std::uint64_t,
                          SubmitStatus status) {
      if (status == SubmitStatus::kAccepted) ++accepted;
    };
    for (std::uint64_t i = 0; i < kProbe; ++i) {
      ASSERT_TRUE(client.submit(21, i, BytesView(loadgen_payload(21, i, 32))));
    }
    pump_until(client, [&] { return accepted == kProbe; },
               std::chrono::minutes(1));
    // Drained (in-flight), then proposed (persist-before-send ran): the
    // race precondition — on disk, in no one's DAG. The drained block sits
    // at most max_blocks_pending (2) deep in the proposal queue, so two
    // more logged proposals guarantee it reached the WAL.
    pump_until(client,
               [&] { return cluster.node(1).mempool().in_flight() >= kProbe; },
               std::chrono::minutes(1));
    const std::uint64_t proposals_at_drain =
        cluster.node(1).proposals_logged();
    pump_until(client,
               [&] {
                 return cluster.node(1).proposals_logged() >=
                        proposals_at_drain + 2;
               },
               std::chrono::minutes(1));
    client.close();
  }
  // None of the probe txs may be delivered anywhere while the proposer is
  // mute (its broadcasts are swallowed).
  {
    std::lock_guard<std::mutex> lk(tally_mu);
    for (std::uint64_t i = 0; i < kProbe; ++i) {
      ASSERT_EQ(tally.count(compose_tx_id(21, i)), 0u);
    }
  }

  cluster.stop_node(1);
  cluster.set_profile(1, core::ByzantineProfile::kHonest);
  cluster.restart_node(1);
  ASSERT_EQ(cluster.ingress_port(1), port);
  // The fix's mechanism: recovery (on the node thread) re-registers the
  // WAL'd-but-undelivered probe txs as in-flight before the builder goes
  // live. Poll: restart_node returns as soon as the thread is spawned.
  {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (cluster.node(1).mempool().stats().restored_in_flight < kProbe) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "recovery did not seed the mempool's in-flight set";
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  {  // Reconnect and resubmit every probe: must dedup, never re-enter.
    Client client(Client::Options{"127.0.0.1", port, 256});
    ASSERT_TRUE(client.connect(5'000));
    std::uint64_t replies = 0, reaccepted = 0, acked = 0;
    client.on_reply = [&](std::uint64_t, std::uint64_t,
                          SubmitStatus status) {
      ++replies;
      if (status == SubmitStatus::kAccepted) ++reaccepted;
    };
    client.on_ack = [&](std::uint64_t, std::uint64_t, std::uint64_t) {
      ++acked;
    };
    for (std::uint64_t i = 0; i < kProbe; ++i) {
      ASSERT_TRUE(client.submit(21, i, BytesView(loadgen_payload(21, i, 32))));
    }
    pump_until(client, [&] { return replies == kProbe; },
               std::chrono::minutes(1));
    EXPECT_EQ(reaccepted, 0u)
        << "resubmission re-accepted while the restored proposal still "
           "holds the tx (double-delivery race)";

    // The now-honest node re-broadcasts the restored proposal; every probe
    // commits (exactly once, checked below) without any re-admission.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    for (;;) {
      {
        std::lock_guard<std::mutex> lk(tally_mu);
        std::uint64_t seen = 0;
        for (std::uint64_t i = 0; i < kProbe; ++i) {
          seen += tally.count(compose_tx_id(21, i));
        }
        if (seen == kProbe) break;
      }
      ASSERT_LT(std::chrono::steady_clock::now(), deadline)
          << "restored proposal never delivered after restart";
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }

    // Fresh traffic through the recovered node stays live end to end.
    for (std::uint64_t i = 0; i < kProbe; ++i) {
      ASSERT_TRUE(client.submit(22, i, BytesView(loadgen_payload(22, i, 32))));
    }
    pump_until(client, [&] { return acked >= kProbe; },
               std::chrono::minutes(1));
    client.close();
  }

  cluster.stop();
  EXPECT_FALSE(core::audit_logs(cluster.delivered_logs(),
                                cluster.commit_logs())
                   .has_value());
  std::lock_guard<std::mutex> lk(tally_mu);
  for (const auto& [id, count] : tally) {
    EXPECT_EQ(count, 1u) << "tx " << id << " committed " << count
                         << " times";
  }
  std::filesystem::remove_all(wal);
}

// --- seeded soak + loadgen smoke ---

TEST(IngressSoak, SeededChaosSweepWithClientChurnStaysClean) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    node::SoakOptions opts;
    opts.seed = seed;
    opts.n = 4;
    opts.target_delivered = 12;
    opts.timeout = std::chrono::minutes(2);
    opts.with_ingress = true;
    opts.ingress_clients = 500;
    opts.ingress_rate_tps = 800.0;
    opts.ingress_churn_period_ms = 100;
    const node::SoakResult r = node::run_chaos_soak(opts);
    EXPECT_TRUE(r.ok) << r.describe();
    EXPECT_GT(r.ingress_acked, 0u) << "seed " << seed;
  }
}

TEST(IngressLoadGen, ThousandsOfClientsOverFewConnections) {
  node::NodeOptions opts;
  opts.seed = 5;
  opts.ingress_enable = true;
  node::Cluster cluster(Committee::for_n(4), opts);
  cluster.start();

  LoadGenOptions gen_opts;
  gen_opts.clients = 2'000;
  gen_opts.connections = 16;
  for (ProcessId pid = 0; pid < 4; ++pid) {
    gen_opts.targets.push_back(
        LoadGenTarget{"127.0.0.1", cluster.ingress_port(pid)});
  }
  gen_opts.duration_ms = 2'000;
  gen_opts.rate_tps = 2'000.0;
  gen_opts.churn_period_ms = 300;
  gen_opts.seed = 11;
  LoadGen gen(gen_opts);
  ASSERT_TRUE(gen.start());
  const LoadGenReport report = gen.wait_and_report();
  cluster.stop();

  EXPECT_TRUE(report.ok) << report.error;
  EXPECT_GT(report.submitted, 1'000u);
  EXPECT_GT(report.acked, report.submitted / 2);
  EXPECT_GT(report.churn_events, 0u);
  EXPECT_GT(report.ack_latency_ms.count(), 0u);
  EXPECT_FALSE(core::audit_logs(cluster.delivered_logs(),
                                cluster.commit_logs())
                   .has_value());
}

}  // namespace
}  // namespace dr::ingress
