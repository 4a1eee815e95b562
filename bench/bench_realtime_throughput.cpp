// RT — real-concurrency throughput/latency of the threaded node runtime
// (src/node/) over the in-process transport: commits/sec and end-to-end
// transaction latency percentiles vs committee size and block size. Unlike
// every other bench in this directory, nothing here is simulated — these are
// OS threads on real clocks, so absolute numbers depend on the host (and on
// sanitizers; CI runs this in --smoke mode only as a liveness check).
//
// Latency is measured client-to-commit: submit stamps the transaction with
// node 0's clock, and delivery at node 0 records the difference, so no
// cross-node clock skew enters the measurement.
// With --wal <dir> every node in every sweep configuration writes its
// append-only vertex WAL under <dir>, measuring the durability overhead
// against the in-memory numbers. With --restart the bench instead kills one
// node of a durable 4-node cluster mid-run, restarts it from its WAL, and
// reports how long WAL replay + peer catch-up took to rejoin the commit
// frontier (requires --wal, or falls back to a temp directory).
// With --chaos [seed] the whole cluster runs behind net::ChaosTransport
// under ChaosPlan::randomized(seed): throughput/latency under seeded link
// faults, with the injected-fault counters emitted as their own table (and
// into --json), so fault pressure is auditable next to the numbers it
// degraded.
// With --ordering <dagrider|bullshark|both> the bench runs the same n=4
// workload under BOTH ordering personalities (DESIGN.md §14) and reports
// them side by side plus the p50 commit-latency ratio — the happy-path
// latency claim of the Bullshark commit rule, measured on this host. Both
// rows land in the --json artifact regardless of which personality the flag
// named, so either invocation yields the full comparison.
#include <atomic>
#include <filesystem>
#include <mutex>

#include "bench_util.hpp"
#include "core/audit.hpp"
#include "core/ordering.hpp"
#include "ingress/loadgen.hpp"
#include "metrics/counters.hpp"
#include "net/chaos.hpp"
#include "node/cluster.hpp"
#include "txpool/transaction.hpp"

namespace dr::bench {
namespace {

struct RealtimeRun {
  double txs_per_sec = 0;
  double commits_per_sec = 0;
  double blocks_per_sec = 0;
  double p50_ms = 0;
  double p99_ms = 0;
  bool ok = false;
};

/// Fresh per-configuration WAL base under --wal, or "" (durability off).
std::string wal_base(const std::string& config) {
  if (bench_wal_dir().empty()) return "";
  const std::string dir = bench_wal_dir() + "/" + config;
  std::filesystem::remove_all(dir);
  return dir;
}

RealtimeRun run_cluster(std::uint32_t n, std::size_t block_max_txs,
                        std::uint64_t total_txs, std::size_t tx_payload,
                        const std::string& wal_dir = "",
                        const net::ChaosPlan* plan = nullptr,
                        metrics::Counters* counters_out = nullptr,
                        core::OrderingKind ordering =
                            core::OrderingKind::kDagRider) {
  node::NodeOptions opts;
  opts.seed = 1234;
  opts.block_max_txs = block_max_txs;
  opts.wal_dir = wal_dir;
  opts.ordering = ordering;
  Committee committee = Committee::for_n(n);
  node::ClusterTweaks tweaks;
  if (plan != nullptr) {
    tweaks.transport_wrap = [plan](ProcessId,
                                   std::unique_ptr<net::Transport> inner) {
      return std::make_unique<net::ChaosTransport>(std::move(inner), *plan);
    };
  }
  node::Cluster cluster(committee, opts, std::move(tweaks));

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

  cluster.start();
  const std::uint64_t t_start = probe.now_us();

  for (std::uint64_t id = 1; id <= total_txs; ++id) {
    txpool::Transaction tx;
    tx.id = id;
    tx.submit_time = probe.now_us();
    tx.payload = Bytes(tx_payload, static_cast<std::uint8_t>(id));
    cluster.node(static_cast<ProcessId>(id % n)).submit_tx(std::move(tx));
  }

  RealtimeRun out;
  if (!cluster.wait_all_delivered(1, std::chrono::minutes(2))) {
    cluster.stop();
    return out;
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  while (txs_done.load(std::memory_order_relaxed) < total_txs) {
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
  if (counters_out != nullptr) {
    std::vector<metrics::Counters> per_node;
    for (ProcessId pid = 0; pid < n; ++pid) {
      per_node.push_back(cluster.node(pid).counters());
    }
    *counters_out = metrics::aggregate(per_node);
  }

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  if (violation.has_value()) {
    std::fprintf(stderr, "RT AUDIT FAILURE: %s\n", violation->c_str());
    return out;
  }

  const double secs = static_cast<double>(t_end - t_start) / 1e6;
  out.txs_per_sec = static_cast<double>(total_txs) / secs;
  out.commits_per_sec = static_cast<double>(commits) / secs;
  out.blocks_per_sec = static_cast<double>(blocks) / secs;
  {
    std::lock_guard<std::mutex> lk(lat_mu);
    out.p50_ms = latency_ms.percentile(0.50);
    out.p99_ms = latency_ms.percentile(0.99);
  }
  out.ok = true;
  return out;
}

void sweep_committee_size() {
  const std::uint64_t total = smoke() ? 2'000 : 20'000;
  metrics::Table t({"n", "txs/s", "blocks/s", "commits/s", "p50 ms", "p99 ms"});
  for (std::uint32_t n : std::vector<std::uint32_t>{4, 7, 10}) {
    if (smoke() && n > 4) continue;
    const RealtimeRun r =
        run_cluster(n, /*block_max_txs=*/256, total, /*tx_payload=*/32,
                    wal_base("rt-n" + std::to_string(n)));
    t.add_row({std::to_string(n),
               r.ok ? metrics::Table::fmt(r.txs_per_sec, 0) : "stall",
               metrics::Table::fmt(r.blocks_per_sec, 0),
               metrics::Table::fmt(r.commits_per_sec, 1),
               metrics::Table::fmt(r.p50_ms, 2),
               metrics::Table::fmt(r.p99_ms, 2)});
  }
  emit(t);
}

void sweep_block_size() {
  const std::uint64_t total = smoke() ? 2'000 : 20'000;
  metrics::Table t(
      {"txs/block", "txs/s", "blocks/s", "commits/s", "p50 ms", "p99 ms"});
  for (std::size_t b : std::vector<std::size_t>{64, 256, 1024}) {
    if (smoke() && b > 64) continue;
    const RealtimeRun r = run_cluster(4, b, total, /*tx_payload=*/32,
                                      wal_base("rt-b" + std::to_string(b)));
    t.add_row({std::to_string(b),
               r.ok ? metrics::Table::fmt(r.txs_per_sec, 0) : "stall",
               metrics::Table::fmt(r.blocks_per_sec, 0),
               metrics::Table::fmt(r.commits_per_sec, 1),
               metrics::Table::fmt(r.p50_ms, 2),
               metrics::Table::fmt(r.p99_ms, 2)});
  }
  emit(t);
}

// --ordering: the same n=4 workload under both ordering personalities. The
// DAG layer, runtime, and transport are identical; only the commit rule
// differs, so the p50 delta is the happy-path latency cost of DAG-Rider's
// 4-round waves vs Bullshark's 2-round anchors (DESIGN.md §14).
void sweep_ordering() {
  const std::uint64_t total = smoke() ? 2'000 : 20'000;
  metrics::Table t({"ordering", "txs/s", "blocks/s", "commits/s", "p50 ms",
                    "p99 ms"});
  double p50[2] = {0, 0};
  bool ok[2] = {false, false};
  for (core::OrderingKind kind :
       {core::OrderingKind::kDagRider, core::OrderingKind::kBullshark}) {
    const char* name = core::to_string(kind);
    const RealtimeRun r = run_cluster(
        4, /*block_max_txs=*/256, total, /*tx_payload=*/32,
        wal_base(std::string("rt-ord-") + name), nullptr, nullptr, kind);
    const auto idx = static_cast<std::size_t>(kind);
    p50[idx] = r.p50_ms;
    ok[idx] = r.ok;
    t.add_row({name, r.ok ? metrics::Table::fmt(r.txs_per_sec, 0) : "stall",
               metrics::Table::fmt(r.blocks_per_sec, 0),
               metrics::Table::fmt(r.commits_per_sec, 1),
               metrics::Table::fmt(r.p50_ms, 2),
               metrics::Table::fmt(r.p99_ms, 2)});
  }
  emit(t);
  if (ok[0] && ok[1] && p50[1] > 0) {
    metrics::Table ratio({"metric", "value"});
    ratio.add_row({"p50 ratio dagrider/bullshark",
                   metrics::Table::fmt(p50[0] / p50[1], 2)});
    emit(ratio);
  } else {
    std::fprintf(stderr, "RT ORDERING: a personality stalled; no ratio\n");
  }
}

// --restart: crash one node of a durable 4-node cluster, restart it, and
// time WAL replay + catch-up sync until it regains the commit frontier the
// survivors held at the moment of restart.
void measure_restart() {
  const std::string dir =
      bench_wal_dir().empty()
          ? (std::filesystem::temp_directory_path() / "dr_rt_restart").string()
          : bench_wal_dir() + "/rt-restart";
  std::filesystem::remove_all(dir);

  node::NodeOptions opts;
  opts.seed = 1234;
  opts.wal_dir = dir;
  node::Cluster cluster(Committee::for_n(4), opts);
  cluster.start();
  node::Node& probe = cluster.node(0);

  // Warm-up, then a downtime window the restarted node must sync across.
  const std::uint64_t warm = smoke() ? 100 : 1'000;
  const std::uint64_t window = smoke() ? 200 : 2'000;
  if (!cluster.wait_all_delivered(warm, std::chrono::minutes(2))) {
    std::fprintf(stderr, "RT RESTART: warm-up stalled\n");
    return;
  }
  cluster.stop_node(2);
  const std::uint64_t at_crash = probe.delivered_count();
  const auto gap_deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  while (probe.delivered_count() < at_crash + window) {
    if (std::chrono::steady_clock::now() >= gap_deadline) {
      std::fprintf(stderr, "RT RESTART: survivors stalled\n");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  const std::uint64_t t0 = probe.now_us();
  cluster.restart_node(2);
  const std::uint64_t rejoin_target = probe.delivered_count();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(3);
  while (cluster.node(2).delivered_count() < rejoin_target) {
    if (std::chrono::steady_clock::now() >= deadline) {
      std::fprintf(stderr, "RT RESTART: rejoin stalled\n");
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const double rejoin_ms = static_cast<double>(probe.now_us() - t0) / 1000.0;
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  if (violation.has_value()) {
    std::fprintf(stderr, "RT RESTART AUDIT FAILURE: %s\n", violation->c_str());
    return;
  }

  metrics::Table t({"metric", "value"});
  t.add_row({"blocks delivered at crash", metrics::Table::fmt_u64(at_crash)});
  t.add_row({"blocks missed while down", metrics::Table::fmt_u64(window)});
  t.add_row({"rejoin latency ms", metrics::Table::fmt(rejoin_ms, 1)});
  for (const auto& [name, value] : cluster.node(2).counters()) {
    if (name == "builder.restored_vertices" ||
        name == "builder.sync_deliveries" ||
        name == "catchup.requests_sent" ||
        name == "catchup.vertices_accepted" ||
        name == "store.recovered_vertices" ||
        name == "store.recovered_proposals") {
      t.add_row({name, metrics::Table::fmt_u64(value)});
    }
  }
  emit(t);
}

// --chaos: the committee-size sweep with every endpoint wrapped in a
// ChaosTransport running ChaosPlan::randomized(chaos_seed()). Reports the
// same throughput/latency columns (now under fault pressure) plus one table
// of injected-fault and backpressure counters per configuration.
void sweep_chaos() {
  const std::uint64_t total = smoke() ? 1'000 : 10'000;
  metrics::Table t({"n", "txs/s", "blocks/s", "commits/s", "p50 ms", "p99 ms"});
  metrics::Table faults({"n", "counter", "value"});
  for (std::uint32_t n : std::vector<std::uint32_t>{4, 7}) {
    if (smoke() && n > 4) continue;
    const net::ChaosPlan plan = net::ChaosPlan::randomized(chaos_seed(), n);
    std::printf("chaos n=%u %s\n", n, plan.describe().c_str());
    metrics::Counters counters;
    const RealtimeRun r =
        run_cluster(n, /*block_max_txs=*/256, total, /*tx_payload=*/32,
                    wal_base("rt-chaos-n" + std::to_string(n)), &plan,
                    &counters);
    t.add_row({std::to_string(n),
               r.ok ? metrics::Table::fmt(r.txs_per_sec, 0) : "stall",
               metrics::Table::fmt(r.blocks_per_sec, 0),
               metrics::Table::fmt(r.commits_per_sec, 1),
               metrics::Table::fmt(r.p50_ms, 2),
               metrics::Table::fmt(r.p99_ms, 2)});
    for (const auto& [name, value] : counters) {
      if (name.rfind("transport.chaos.", 0) == 0 ||
          name == "transport.backpressure_overflows") {
        faults.add_row({std::to_string(n), name,
                        metrics::Table::fmt_u64(value)});
      }
    }
  }
  emit(t);
  emit(faults);
}

// --ingress: an n=4 cluster with TCP node-to-node links and the client
// ingress tier enabled. The open-loop loadgen multiplexes the logical client
// population over real connections against all four tx-submission endpoints,
// Zipf-skewed, with mid-run connection churn. Reports client-observed
// end-to-end throughput and p50/p99 commit-ack latency, plus the ingress /
// mempool counter families.
void sweep_ingress() {
  const std::uint64_t clients = smoke() ? 2'000 : 10'000;
  const double rate_tps = smoke() ? 20'000.0 : 120'000.0;
  const std::uint64_t duration_ms = smoke() ? 3'000 : 10'000;

  node::NodeOptions opts;
  opts.seed = 1234;
  opts.wal_dir = wal_base("rt-ingress");
  opts.ingress_enable = true;
  node::ClusterTweaks tweaks;
  tweaks.tcp_transport = true;
  node::Cluster cluster(Committee::for_n(4), opts, std::move(tweaks));
  cluster.start();

  ingress::LoadGenOptions lg;
  lg.clients = clients;
  lg.connections = 64;
  for (ProcessId pid = 0; pid < 4; ++pid) {
    lg.targets.push_back(
        ingress::LoadGenTarget{"127.0.0.1", cluster.ingress_port(pid)});
  }
  lg.duration_ms = duration_ms;
  lg.rate_tps = rate_tps;
  lg.payload_bytes = 32;
  lg.churn_period_ms = 500;
  lg.seed = 42;
  ingress::LoadGen gen(lg);
  gen.start();
  const ingress::LoadGenReport r = gen.wait_and_report();
  cluster.stop();

  const auto violation =
      core::audit_logs(cluster.delivered_logs(), cluster.commit_logs());
  if (violation.has_value()) {
    std::fprintf(stderr, "RT INGRESS AUDIT FAILURE: %s\n", violation->c_str());
    return;
  }

  const double secs =
      static_cast<double>(r.elapsed_ms ? r.elapsed_ms : 1) / 1000.0;
  metrics::Table t({"metric", "value"});
  t.add_row({"clients", metrics::Table::fmt_u64(clients)});
  t.add_row({"submitted", metrics::Table::fmt_u64(r.submitted)});
  t.add_row({"accepted", metrics::Table::fmt_u64(r.accepted)});
  t.add_row({"acked", metrics::Table::fmt_u64(r.acked)});
  t.add_row({"acked txs/s",
             metrics::Table::fmt(static_cast<double>(r.acked) / secs, 0)});
  t.add_row({"ack p50 ms",
             metrics::Table::fmt(r.ack_latency_ms.percentile(0.50), 2)});
  t.add_row({"ack p99 ms",
             metrics::Table::fmt(r.ack_latency_ms.percentile(0.99), 2)});
  t.add_row({"busy rejects", metrics::Table::fmt_u64(r.busy)});
  t.add_row({"dup pending", metrics::Table::fmt_u64(r.dup_pending)});
  t.add_row({"dup committed", metrics::Table::fmt_u64(r.dup_committed)});
  t.add_row({"resubmitted", metrics::Table::fmt_u64(r.resubmitted)});
  t.add_row({"churn events", metrics::Table::fmt_u64(r.churn_events)});
  t.add_row(
      {"local backpressure", metrics::Table::fmt_u64(r.local_backpressure)});
  t.add_row(
      {"outstanding at end", metrics::Table::fmt_u64(r.outstanding_at_end)});
  emit(t);

  std::vector<metrics::Counters> per_node;
  for (ProcessId pid = 0; pid < 4; ++pid) {
    per_node.push_back(cluster.node(pid).counters());
  }
  metrics::Table ic({"counter", "value"});
  for (const auto& [name, value] : metrics::aggregate(per_node)) {
    if (name.rfind("ingress.", 0) == 0 || name.rfind("mempool.", 0) == 0) {
      ic.add_row({name, metrics::Table::fmt_u64(value)});
    }
  }
  emit(ic);
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  if (dr::bench::ingress_mode()) {
    dr::bench::print_header(
        "RT-INGRESS",
        "client ingress tier: open-loop loadgen over TCP, commit-ack latency");
    dr::bench::sweep_ingress();
    dr::bench::bench_finish();
    return 0;
  }
  if (!dr::bench::ordering_mode().empty()) {
    if (dr::bench::ordering_mode() != "both" &&
        !dr::core::parse_ordering(dr::bench::ordering_mode()).has_value()) {
      std::fprintf(stderr, "unknown ordering: %s (dagrider|bullshark|both)\n",
                   dr::bench::ordering_mode().c_str());
      return 2;
    }
    dr::bench::print_header(
        "RT-ORDERING",
        "ordering personalities head-to-head: dagrider vs bullshark (n=4)");
    dr::bench::sweep_ordering();
    dr::bench::bench_finish();
    return 0;
  }
  if (dr::bench::chaos_mode()) {
    dr::bench::print_header(
        "RT-CHAOS",
        "real-concurrency runtime under seeded chaos faults (in-proc)");
    dr::bench::sweep_chaos();
    dr::bench::bench_finish();
    return 0;
  }
  if (dr::bench::restart_mode()) {
    dr::bench::print_header(
        "RT-RESTART", "crash restart: WAL replay + catch-up rejoin latency");
    dr::bench::measure_restart();
  } else {
    dr::bench::print_header(
        "RT", "real-concurrency runtime: commits/sec and tx latency (in-proc)");
    dr::bench::sweep_committee_size();
    dr::bench::sweep_block_size();
  }
  dr::bench::bench_finish();
  return 0;
}
