// Deterministic chaos harness tests (DESIGN.md §12): the seed-replay
// contract of net::ChaosPlan, the checked-in regression seeds, catch-up
// rejoin under injected kSync loss, partition/heal liveness, live Byzantine
// profiles, and the canary proving the soak harness actually catches
// violations and replays them from the printed seed.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "core/audit.hpp"
#include "net/chaos.hpp"
#include "node/cluster.hpp"
#include "node/soak.hpp"

namespace dr::node {
namespace {

std::string fresh_dir(const std::string& name) {
  const char* env = std::getenv("TEST_TMPDIR");
  const std::string base = env != nullptr ? env : testing::TempDir();
  const std::string dir = base + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

std::uint64_t counter_value(const metrics::Counters& counters,
                            const std::string& name) {
  for (const auto& [key, value] : counters) {
    if (key == name) return value;
  }
  ADD_FAILURE() << "counter " << name << " missing";
  return 0;
}

// --- ChaosPlan: the seed-replay contract ---

TEST(ChaosPlan, SameSeedSamePlanAndSameFrameFates) {
  const auto a = net::ChaosPlan::randomized(12345, 7);
  const auto b = net::ChaosPlan::randomized(12345, 7);
  EXPECT_EQ(a.describe(), b.describe());
  // Frame fates are a pure function of (seed, from, to, channel, seq):
  // replaying a seed re-runs the exact adversarial schedule.
  for (std::uint64_t seq = 0; seq < 500; ++seq) {
    const auto da = a.decide(1, 2, net::Channel::kBracha, seq);
    const auto db = b.decide(1, 2, net::Channel::kBracha, seq);
    EXPECT_EQ(da.lost_attempts, db.lost_attempts);
    EXPECT_EQ(da.duplicate, db.duplicate);
    EXPECT_EQ(da.delay_us, db.delay_us);
    EXPECT_EQ(da.holdback_us, db.holdback_us);
  }
}

TEST(ChaosPlan, DifferentSeedsDiverge) {
  const auto a = net::ChaosPlan::randomized(1, 4);
  const auto b = net::ChaosPlan::randomized(2, 4);
  EXPECT_NE(a.describe(), b.describe());
}

TEST(ChaosPlan, DistinctLinksDrawIndependentStreams) {
  const auto plan = net::ChaosPlan::randomized(99, 4);
  // Same seq on different links must not be fate-correlated; a trivial
  // check: across many frames the two links disagree at least once.
  bool diverged = false;
  for (std::uint64_t seq = 0; seq < 200 && !diverged; ++seq) {
    const auto a = plan.decide(0, 1, net::Channel::kBracha, seq);
    const auto b = plan.decide(0, 2, net::Channel::kBracha, seq);
    diverged = a.lost_attempts != b.lost_attempts || a.delay_us != b.delay_us;
  }
  EXPECT_TRUE(diverged);
}

TEST(ChaosPlan, RandomizedPlansStayInsideTheModel) {
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    for (std::uint32_t n : {4u, 7u, 10u}) {
      const auto plan = net::ChaosPlan::randomized(seed, n);
      const std::uint32_t f = Committee::for_n(n).f;
      for (const auto& part : plan.partitions) {
        // Every partition heals (finite delays — the liveness assumption)
        // and cuts off exactly f processes (the surviving side keeps 2f+1,
        // so quorums stay satisfiable throughout the window).
        EXPECT_GT(part.heal_us, part.start_us);
        EXPECT_EQ(part.group_a.size(), f);
      }
      // All injected latency is finite and bounded.
      EXPECT_LT(plan.max_injected_delay_us(), 60'000'000u);
    }
  }
}

TEST(ChaosPlan, PartitionSeparatesExactlyAcrossTheCut) {
  net::PartitionSpec part;
  part.group_a = {0, 2};
  EXPECT_TRUE(part.separates(0, 1));
  EXPECT_TRUE(part.separates(3, 2));
  EXPECT_FALSE(part.separates(0, 2));
  EXPECT_FALSE(part.separates(1, 3));
}

// --- Checked-in regression seeds ---
// Seeds picked because their randomized schedules hit interesting windows
// (verified by the plan assertions below, so a generator change that would
// silently defang a seed fails loudly instead).

TEST(ChaosSoak, SeedReplayPartitionDuringWave) {
  // Seed 5: partition of f nodes over ~95..177ms — mid-wave for a fresh
  // cluster — plus extra kSync loss on top of the base faults.
  const auto plan = net::ChaosPlan::randomized(5, 4);
  ASSERT_FALSE(plan.partitions.empty());

  SoakOptions opts;
  opts.seed = 5;
  opts.n = 4;
  opts.target_delivered = 40;
  opts.timeout = std::chrono::minutes(2);
  const SoakResult result = run_chaos_soak(opts);
  EXPECT_TRUE(result.ok) << result.describe();
  EXPECT_TRUE(result.progressed);
  EXPECT_TRUE(result.violation.empty()) << result.violation;
}

TEST(ChaosSoak, SeedReplayChurnDuringCatchup) {
  // Seed 2: extra kSync drop (the catch-up channel) with a partition over
  // ~125..407ms; churn crashes an honest node into that turbulence and it
  // must still rejoin through its WAL + lossy catch-up sync.
  const auto plan = net::ChaosPlan::randomized(2, 4);
  ASSERT_FALSE(plan.partitions.empty());
  ASSERT_FALSE(plan.per_channel.empty());

  SoakOptions opts;
  opts.seed = 2;
  opts.n = 4;
  opts.target_delivered = 40;
  opts.timeout = std::chrono::minutes(3);
  opts.with_churn = true;
  opts.wal_dir = fresh_dir("dr_chaos_churn_seed2");
  const SoakResult result = run_chaos_soak(opts);
  EXPECT_TRUE(result.ok) << result.describe();
}

TEST(ChaosSoak, SeedReplayThrottledLinks) {
  // Seed 1: partition plus kSync override; run at n=7 to cover a committee
  // where the minority side of the cut has more than one member.
  SoakOptions opts;
  opts.seed = 1;
  opts.n = 7;
  opts.target_delivered = 30;
  opts.timeout = std::chrono::minutes(3);
  const SoakResult result = run_chaos_soak(opts);
  EXPECT_TRUE(result.ok) << result.describe();
}

// --- Canary: the harness must catch violations, not just pass clean runs ---

TEST(ChaosSoak, CanaryViolationCaughtAndReplaysFromSeed) {
  SoakOptions opts;
  opts.seed = 7;
  opts.n = 4;
  opts.target_delivered = 20;
  opts.timeout = std::chrono::minutes(2);
  opts.canary = true;
  const SoakResult first = run_chaos_soak(opts);
  ASSERT_FALSE(first.violation.empty())
      << "canary-corrupted logs passed the auditors — the harness is blind";
  EXPECT_FALSE(first.ok);
  // The replay recipe names the seed and the full plan.
  EXPECT_NE(first.describe().find("seed=7"), std::string::npos);
  EXPECT_NE(first.describe().find("plan="), std::string::npos);
  EXPECT_EQ(first.plan, net::ChaosPlan::randomized(7, 4).describe());

  // Replaying the printed seed re-runs the same schedule and re-catches a
  // violation of the same invariant.
  const SoakResult replay = run_chaos_soak(opts);
  ASSERT_FALSE(replay.violation.empty());
  EXPECT_EQ(replay.seed, first.seed);
  EXPECT_EQ(replay.plan, first.plan);
}

// --- Live Byzantine profiles ---

TEST(ChaosSoak, LiveByzantineProfilesAreNeutralized) {
  const core::ByzantineProfile profiles[] = {
      core::ByzantineProfile::kEquivocate, core::ByzantineProfile::kMute,
      core::ByzantineProfile::kSelective};
  std::uint64_t seed = 31;
  for (const core::ByzantineProfile profile : profiles) {
    SoakOptions opts;
    opts.seed = seed++;
    opts.n = 4;
    opts.target_delivered = 30;
    opts.timeout = std::chrono::minutes(2);
    // Chaos faults stay on; the scripted partition is off so the adversary
    // (not the network schedule) is the variable under test.
    opts.with_partition = false;
    opts.byzantine = profile;
    const SoakResult result = run_chaos_soak(opts);
    EXPECT_TRUE(result.ok) << to_string(profile) << ": " << result.describe();
    // A Byzantine test whose adversary never attacked proves nothing.
    EXPECT_GT(result.byzantine_attacks, 0u) << to_string(profile);
    EXPECT_LT(result.byzantine_pid, opts.n);
  }
}

// --- Counters surfaced through the flat snapshot ---

TEST(ChaosSoak, ChaosCountersSurfaced) {
  SoakOptions opts;
  opts.seed = 7;  // 7.3% base loss, no partition: pure link-fault pressure
  opts.n = 4;
  opts.target_delivered = 30;
  opts.timeout = std::chrono::minutes(2);
  const SoakResult result = run_chaos_soak(opts);
  ASSERT_TRUE(result.ok) << result.describe();
  // Fault injection actually happened and is visible in the aggregate.
  EXPECT_GT(counter_value(result.counters, "transport.chaos.drops"), 0u);
  EXPECT_GT(counter_value(result.counters, "transport.chaos.delays"), 0u);
  EXPECT_GT(counter_value(result.counters, "transport.chaos.forwarded"), 0u);
  // Present even when zero: the backpressure gauge and the remaining fault
  // classes ride the same snapshot.
  counter_value(result.counters, "transport.backpressure_overflows");
  counter_value(result.counters, "transport.chaos.duplicates");
  counter_value(result.counters, "transport.chaos.reorders");
  counter_value(result.counters, "transport.chaos.partition_delays");
}

// --- Catch-up sync under targeted kSync loss (scripted, not randomized) ---

TEST(ChaosCluster, CatchupRejoinsUnderSyncLoss) {
  const Committee committee = Committee::for_f(1);
  net::ChaosPlan plan;
  plan.seed = 77;
  // Only the catch-up channel is faulted: 20% of kSync frames vanish, so
  // the rejoining node's voucher collection must survive request retries
  // and still assemble f+1 byte-identical copies per vertex.
  net::LinkFaults sync;
  sync.drop = 0.20;
  plan.per_channel.emplace_back(net::Channel::kSync, sync);

  NodeOptions opts;
  opts.seed = 77;
  opts.wal_dir = fresh_dir("dr_chaos_sync_loss");
  ClusterTweaks tweaks;
  tweaks.transport_wrap = [plan](ProcessId,
                                 std::unique_ptr<net::Transport> inner) {
    return std::make_unique<net::ChaosTransport>(std::move(inner), plan);
  };
  Cluster cluster(committee, opts, std::move(tweaks));
  cluster.start();
  ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 5ull,
                                         std::chrono::minutes(2)));

  cluster.stop_node(2);
  const std::uint64_t down_target =
      cluster.node(0).delivered_count() + committee.n * 6ull;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (cluster.node(0).delivered_count() < down_target ||
         cluster.node(1).delivered_count() < down_target ||
         cluster.node(3).delivered_count() < down_target) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "survivors stalled with one node down";
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  cluster.restart_node(2);
  ASSERT_TRUE(cluster.wait_all_delivered(down_target + committee.n * 4ull,
                                         std::chrono::minutes(3)))
      << "rejoin did not complete under 20% kSync loss";
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;

  const metrics::Counters counters = cluster.node(2).counters();
  // vertices_accepted counts exactly the slots where vouchers reached the
  // f+1 byte-identical quorum (catchup.hpp) — the missed window came back
  // through lossy sync, not luck.
  EXPECT_GT(counter_value(counters, "catchup.vertices_accepted"), 0u);
  EXPECT_EQ(counter_value(counters, "catchup.vertices_mismatched"), 0u);
  // The chaos layer really did eat sync traffic somewhere in the cluster.
  std::uint64_t sync_drops = 0;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    sync_drops +=
        counter_value(cluster.node(pid).counters(), "transport.chaos.drops");
  }
  EXPECT_GT(sync_drops, 0u);
}

// --- Scripted partition: safety during the split, liveness after heal ---

TEST(ChaosCluster, PartitionHealsWithoutDivergence) {
  const Committee committee = Committee::for_f(1);
  net::ChaosPlan plan;
  plan.seed = 88;
  net::PartitionSpec part;
  part.start_us = 50'000;
  part.heal_us = 450'000;
  part.group_a = {3};  // exactly f: the majority side keeps its 2f+1 quorum
  plan.partitions.push_back(part);

  NodeOptions opts;
  opts.seed = 88;
  ClusterTweaks tweaks;
  tweaks.transport_wrap = [plan](ProcessId,
                                 std::unique_ptr<net::Transport> inner) {
    return std::make_unique<net::ChaosTransport>(std::move(inner), plan);
  };
  Cluster cluster(committee, opts, std::move(tweaks));
  cluster.start();

  // Mid-split: the auditors must already hold on whatever has been logged —
  // the cut-off node may lag, but no two nodes may disagree.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  {
    const auto mid = core::audit_logs(cluster.delivered_logs(),
                                      cluster.commit_logs());
    ASSERT_FALSE(mid.has_value()) << "divergence during the split: " << *mid;
  }

  // After heal: every node, including the rejoined minority, makes progress
  // within the run's (bounded) window.
  ASSERT_TRUE(cluster.wait_all_delivered(committee.n * 10ull,
                                         std::chrono::minutes(2)))
      << "no commit progress after the partition healed";
  cluster.stop();
  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  ASSERT_FALSE(violation.has_value()) << *violation;

  std::uint64_t partition_delays = 0;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    partition_delays += counter_value(cluster.node(pid).counters(),
                                      "transport.chaos.partition_delays");
  }
  EXPECT_GT(partition_delays, 0u) << "the scripted partition never bit";
}

}  // namespace
}  // namespace dr::node
