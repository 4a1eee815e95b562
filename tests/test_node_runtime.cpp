// Real-concurrency runtime cross-check: threaded clusters must satisfy the
// exact same log-level BAB auditors (core/audit.hpp) that judge the
// simulator's property sweeps. These tests are the designated targets of
// the sanitizer CI jobs — a 4-node in-process cluster pushing >=10k client
// transactions under TSan is the strongest evidence the runtime's
// thread-safety story (single-threaded stack, concurrency only at the
// inbox/mempool/log boundaries) actually holds.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>

#include "core/audit.hpp"
#include "net/tcp.hpp"
#include "node/cluster.hpp"
#include "node/node.hpp"
#include "txpool/transaction.hpp"

namespace dr::node {
namespace {

constexpr std::uint64_t kTxTarget = 10'000;

TEST(NodeRuntime, FourNodeClusterCommitsTenThousandTxs) {
  const Committee committee = Committee::for_f(1);
  NodeOptions opts;
  opts.seed = 42;
  opts.coin_mode = core::CoinMode::kPiggyback;
  Cluster cluster(committee, opts);

  // Per-node count of client transactions observed in a_delivered blocks.
  std::array<std::atomic<std::uint64_t>, 4> tx_seen{};
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    cluster.node(pid).set_app_deliver(
        [&tx_seen, pid](const Bytes& block, Round, ProcessId, std::uint64_t) {
          if (auto txs = txpool::decode_block(BytesView(block))) {
            tx_seen[pid].fetch_add(txs.value().size(),
                                   std::memory_order_relaxed);
          }
        });
  }

  cluster.start();

  // Clients: each transaction goes to exactly one node, round-robin.
  for (std::uint64_t id = 1; id <= kTxTarget; ++id) {
    txpool::Transaction tx;
    tx.id = id;
    tx.payload = Bytes(32, static_cast<std::uint8_t>(id));
    const ProcessId target = static_cast<ProcessId>(id % committee.n);
    tx.submit_time = cluster.node(target).now_us();
    ASSERT_EQ(cluster.node(target).submit_tx(std::move(tx)),
              ingress::SubmitStatus::kAccepted);
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  for (;;) {
    bool all = true;
    for (ProcessId pid = 0; pid < committee.n; ++pid) {
      if (tx_seen[pid].load(std::memory_order_relaxed) < kTxTarget) {
        all = false;
        break;
      }
    }
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "cluster stalled: tx counts " << tx_seen[0] << " " << tx_seen[1]
        << " " << tx_seen[2] << " " << tx_seen[3];
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  cluster.stop();

  // Every node committed every client transaction...
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    EXPECT_GE(tx_seen[pid].load(), kTxTarget);
  }
  // ...and the logs pass the same auditors as the simulator sweeps.
  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;

  // Order actually progressed on all nodes (not just vacuous prefixes).
  for (const auto& log : cluster.delivered_logs()) {
    EXPECT_GE(log.size(), committee.n * 4u);
  }
}

TEST(NodeRuntime, ThresholdCoinOnWireAlsoAgrees) {
  // Same cluster but with coin shares broadcast on the dedicated channel
  // instead of piggybacked — exercises the kCoin wire path end to end.
  const Committee committee = Committee::for_f(1);
  NodeOptions opts;
  opts.seed = 7;
  opts.coin_mode = core::CoinMode::kThreshold;
  Cluster cluster(committee, opts);
  cluster.start();

  ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 8ull,
                                         std::chrono::minutes(2)));
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

TEST(NodeRuntime, TcpClusterReachesAgreement) {
  const Committee committee = Committee::for_f(1);
  const auto ports = net::pick_free_ports(committee.n);
  std::vector<net::TcpPeer> peers;
  for (auto p : ports) peers.push_back(net::TcpPeer{"127.0.0.1", p});

  NodeOptions opts;
  opts.seed = 21;
  const coin::CoinDealer dealer(opts.seed ^ coin::kDealerSeedTweak, committee);

  std::vector<std::unique_ptr<Node>> nodes;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    nodes.push_back(std::make_unique<Node>(
        std::make_unique<net::TcpTransport>(committee, pid, peers), &dealer,
        opts));
  }
  for (auto& n : nodes) n->start();

  const std::uint64_t target = committee.n * 8ull;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  for (;;) {
    bool all = true;
    for (auto& n : nodes) {
      if (n->delivered_count() < target) {
        all = false;
        break;
      }
    }
    if (all) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "tcp cluster stalled";
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }

  for (auto& n : nodes) n->stop_loop();
  for (auto& n : nodes) n->stop_transport();

  std::vector<std::vector<core::DeliveredRecord>> delivered;
  std::vector<std::vector<core::CommitRecord>> commits;
  for (auto& n : nodes) {
    delivered.push_back(n->delivered_snapshot());
    commits.push_back(n->commits_snapshot());
  }
  const auto violation = core::audit_logs(delivered, commits);
  ASSERT_FALSE(violation.has_value()) << *violation;
}

}  // namespace
}  // namespace dr::node
