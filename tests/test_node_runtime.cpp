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
#include "core/contract.hpp"
#include "node/cluster.hpp"
#include "node/node.hpp"
#include "txpool/transaction.hpp"

namespace dr::node {
namespace {

constexpr std::uint64_t kTxTarget = 10'000;
// About 3 s in an optimized build. Builds with contracts compiled in (Debug,
// sanitizers) run the stack many times slower; a quarter of the blocks still
// passes the GC floor over a thousand times there.
#if DR_CONTRACTS_ENABLED
constexpr std::uint64_t kGcHoldbackBlocks = 20'000;
#else
constexpr std::uint64_t kGcHoldbackBlocks = 80'000;
#endif

TEST(NodeRuntime, FourNodeClusterCommitsTenThousandTxs) {
  const Committee committee = Committee::for_f(1);
  NodeOptions opts;
  opts.seed = 42;
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

TEST(NodeRuntime, TcpClusterReachesAgreement) {
  const Committee committee = Committee::for_f(1);
  NodeOptions opts;
  opts.seed = 21;
  ClusterTweaks tweaks;
  tweaks.tcp_transport = true;
  Cluster cluster(committee, opts, std::move(tweaks));
  cluster.start();

  ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 8ull,
                                         std::chrono::minutes(3)))
      << "tcp cluster stalled";
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

// GC under the laggard holdback (DESIGN.md §10): each node holds its
// builder's retention floor back for its slowest live peer, so retention
// differs between nodes and over time. Delivery must not notice. The run
// passes the ordering floor thousands of times and every log must still
// agree; a delivery floor read from the held-back builder breaks Total
// Order within about a second of this run. The target is a delivered count,
// not a time.
TEST(GcHoldback, LongRunKeepsTotalOrder) {
  const Committee committee = Committee::for_f(1);
  NodeOptions opts;
  opts.seed = 7;
  opts.gc_depth_rounds = 32;
  Cluster cluster(committee, opts);
  cluster.start();
  const bool reached =
      cluster.wait_all_delivered(kGcHoldbackBlocks, std::chrono::minutes(2));
  cluster.stop();
  ASSERT_TRUE(reached);
  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;
}

}  // namespace
}  // namespace dr::node
