// RT — DAG-Rider vs Bullshark on the threaded node runtime (src/node/), the
// one runtime comparison perfbench/ does not make. One fixed 2x2 matrix:
// {dagrider, bullshark} x {clean in-process links, ChaosPlan::randomized(1,
// 4)}. Each cell is one n=4 node::Cluster with default NodeOptions apart
// from the ordering personality (DESIGN.md §14). It submits open-loop at a
// paced 10k tx/s (perfbench's rate) for a fixed window, drains until node 0
// delivered every accepted tx, and passes core::audit_logs before its row
// prints. The window is 6 s, perfbench's sub-run length, and 1 s under
// --smoke.
//
// Latency is client-to-commit: submit stamps the transaction with node 0's
// clock, and delivery at node 0 records the difference, so no cross-node
// clock skew enters the measurement. The chaos cells run the schedule that
// `chaos_soak --seed 1 --n 4` replays; its describe() line is a row of the
// faults table.
//
// Exit status: 0 when every cell drained and passed the auditors; 1 on a
// stall, an audit violation, or a p50 ratio that could not be computed.
#include <atomic>
#include <mutex>

#include "bench_util.hpp"
#include "core/audit.hpp"
#include "core/ordering.hpp"
#include "metrics/counters.hpp"
#include "net/chaos.hpp"
#include "node/cluster.hpp"
#include "txpool/transaction.hpp"

namespace dr::bench {
namespace {

constexpr std::uint32_t kNodes = 4;
constexpr std::uint64_t kChaosSeed = 1;
constexpr std::uint64_t kGapUs = 100;  // 10k tx/s
constexpr std::uint64_t kSmokeWindowUs = 1'000'000;
constexpr std::uint64_t kWindowUs = 6'000'000;

struct Cell {
  std::uint64_t txs = 0;
  double txs_per_sec = 0;
  double commits_per_sec = 0;
  double blocks_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  const char* failure = "stall";  ///< nullptr once the cell passed
};

Cell run_cell(core::OrderingKind ordering, const net::ChaosPlan* plan,
              metrics::Counters& counters_out) {
  node::NodeOptions opts;
  opts.ordering = ordering;
  node::ClusterTweaks tweaks;
  if (plan != nullptr) {
    tweaks.transport_wrap = [plan](ProcessId,
                                   std::unique_ptr<net::Transport> inner) {
      return std::make_unique<net::ChaosTransport>(std::move(inner), *plan);
    };
  }
  node::Cluster cluster(Committee::for_n(kNodes), opts, std::move(tweaks));

  // Latency samples and completion tracking, fed by node 0's deliver hook.
  metrics::Summary latency_ms;
  std::mutex lat_mu;
  std::atomic<std::uint64_t> txs_done{0};
  node::Node& probe = cluster.node(0);
  probe.set_app_deliver([&](const Bytes& block, Round, ProcessId,
                            std::uint64_t t_us) {
    auto txs = txpool::decode_block(BytesView(block));
    if (!txs.ok()) return;
    std::lock_guard<std::mutex> lk(lat_mu);
    for (const auto& tx : txs.value()) {
      latency_ms.add(static_cast<double>(t_us - tx.submit_time) / 1000.0);
    }
    txs_done.fetch_add(txs.value().size(), std::memory_order_relaxed);
  });

  Cell out;
  cluster.start();
  if (!cluster.wait_all_delivered(1, std::chrono::minutes(2))) {
    cluster.stop();
    return out;
  }

  // Open loop: tx k is due k-1 gaps after the window opens, whatever the
  // cluster has committed by then.
  const std::uint64_t t_start = probe.now_us();
  const std::uint64_t t_close =
      t_start + (smoke() ? kSmokeWindowUs : kWindowUs);
  for (std::uint64_t id = 1, due = t_start; due < t_close;
       ++id, due += kGapUs) {
    const std::uint64_t now = probe.now_us();
    if (due > now) {
      std::this_thread::sleep_for(std::chrono::microseconds(due - now));
    }
    txpool::Transaction tx;
    tx.id = id;
    tx.submit_time = probe.now_us();
    tx.payload = Bytes(32, static_cast<std::uint8_t>(id));
    if (cluster.node(static_cast<ProcessId>(id % kNodes))
            .submit_tx(std::move(tx)) == ingress::SubmitStatus::kAccepted) {
      ++out.txs;
    }
  }

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (txs_done.load(std::memory_order_relaxed) < out.txs) {
    if (std::chrono::steady_clock::now() >= deadline) {
      cluster.stop();
      return out;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::uint64_t t_end = probe.now_us();
  const std::uint64_t commits = probe.commits_snapshot().size();
  const std::uint64_t blocks = probe.delivered_count();
  cluster.stop();
  std::vector<metrics::Counters> per_node;
  for (ProcessId pid = 0; pid < kNodes; ++pid) {
    per_node.push_back(cluster.node(pid).counters());
  }
  counters_out = metrics::aggregate(per_node);

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  if (violation.has_value()) {
    std::fprintf(stderr, "RT AUDIT FAILURE: %s\n", violation->c_str());
    out.failure = "audit";
    return out;
  }

  const double secs = static_cast<double>(t_end - t_start) / 1e6;
  out.txs_per_sec = static_cast<double>(out.txs) / secs;
  out.commits_per_sec = static_cast<double>(commits) / secs;
  out.blocks_per_sec = static_cast<double>(blocks) / secs;
  {
    std::lock_guard<std::mutex> lk(lat_mu);
    out.p50_ms = latency_ms.percentile(0.50);
    out.p99_ms = latency_ms.percentile(0.99);
  }
  out.failure = nullptr;
  return out;
}

/// Runs the matrix and emits its three tables; false when any cell failed
/// or a link condition has no p50 ratio.
bool run_matrix() {
  const net::ChaosPlan plan = net::ChaosPlan::randomized(kChaosSeed, kNodes);
  metrics::Table results({"links", "ordering", "txs", "txs/s", "blocks/s",
                          "commits/s", "p50 ms", "p99 ms"});
  metrics::Table ratios({"links", "p50 ratio dagrider/bullshark"});
  metrics::Table faults({"ordering", "counter", "value"});
  faults.add_row({"both", "plan", plan.describe()});
  bool all_ok = true;
  for (const bool chaos : {false, true}) {
    const char* links = chaos ? "chaos" : "clean";
    double p50[2] = {0, 0};
    bool ok[2] = {false, false};
    for (core::OrderingKind kind :
         {core::OrderingKind::kDagRider, core::OrderingKind::kBullshark}) {
      const char* name = core::to_string(kind);
      metrics::Counters counters;
      const Cell c = run_cell(kind, chaos ? &plan : nullptr, counters);
      const auto idx = static_cast<std::size_t>(kind);
      p50[idx] = c.p50_ms;
      ok[idx] = c.failure == nullptr;
      if (!ok[idx]) {
        std::fprintf(stderr, "RT %s: %s links, %s\n", c.failure, links, name);
      }
      results.add_row({links, name, metrics::Table::fmt_u64(c.txs),
                       ok[idx] ? metrics::Table::fmt(c.txs_per_sec, 0)
                               : c.failure,
                       metrics::Table::fmt(c.blocks_per_sec, 0),
                       metrics::Table::fmt(c.commits_per_sec, 1),
                       metrics::Table::fmt(c.p50_ms, 2),
                       metrics::Table::fmt(c.p99_ms, 2)});
      if (!chaos) continue;
      for (const auto& [counter, value] : counters) {
        if (counter.rfind("transport.chaos.", 0) == 0 ||
            counter == "transport.backpressure_overflows") {
          faults.add_row({name, counter, metrics::Table::fmt_u64(value)});
        }
      }
    }
    if (ok[0] && ok[1] && p50[1] > 0) {
      ratios.add_row({links, metrics::Table::fmt(p50[0] / p50[1], 2)});
    } else {
      ratios.add_row({links, "none"});
      all_ok = false;
    }
  }
  emit(results);
  emit(ratios);
  emit(faults);
  return all_ok;
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  dr::bench::print_header(
      "RT-ORDERING",
      "dagrider vs bullshark on the runtime: n=4, paced 10k tx/s, clean and "
      "chaos links");
  const bool ok = dr::bench::run_matrix();
  dr::bench::bench_finish();
  return ok ? 0 : 1;
}
