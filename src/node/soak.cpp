#include "node/soak.hpp"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <optional>
#include <stop_token>
#include <thread>
#include <utility>
#include <vector>

#include "common/assert.hpp"
#include "common/rng.hpp"
#include "core/audit.hpp"
#include "ingress/client.hpp"
#include "ingress/server.hpp"
#include "metrics/stats.hpp"
#include "net/chaos.hpp"

namespace dr::node {
namespace {

/// Salt separating the soak's schedule stream (Byzantine seat, churn victim
/// and timing) from the ChaosPlan stream derived from the same user seed.
constexpr std::uint64_t kSoakSeedTweak = 0x50A1C5EEDULL;

// Client traffic of a with_ingress soak. Its shape is fixed: the soak checks
// that client txs get acked through the fault schedule and across client
// churn, not how the tier behaves under a given load (perfbench's
// ingress-tcp workload measures that).
constexpr std::uint64_t kClients = 500;
constexpr std::chrono::microseconds kTxInterval{1'250};  // 800 tx/s
constexpr std::chrono::milliseconds kChurnPeriod{100};
constexpr std::chrono::milliseconds kRedialBackoff{100};
constexpr int kConnectTimeoutMs = 500;
constexpr std::chrono::milliseconds kAckDrain{500};
constexpr std::size_t kPayloadBytes = 32;

using Clock = std::chrono::steady_clock;

/// The soak's client side. The k-th tx is tx k / kClients of logical client
/// k % kClients, sent alone in one Client::submit on connection
/// client % connections; connection i dials node i mod n. Every kChurnPeriod
/// one seeded connection is closed and redialed, and its un-acked txs are
/// resubmitted byte-identically (payloads regenerate from (client, tx)). A
/// failed dial, or a connection the server dropped, is redialed after
/// kRedialBackoff. All state belongs to the thread running run(); the soak
/// reads it only after joining that thread, apart from the atomic acked().
class ClientDriver {
 public:
  /// `rng` picks the churned connections.
  ClientDriver(std::vector<std::uint16_t> ports, std::size_t connections,
               Xoshiro256 rng)
      : ports_(std::move(ports)),
        conns_(connections),
        redial_at_(connections),
        rng_(rng) {}

  ClientDriver(const ClientDriver&) = delete;
  ClientDriver& operator=(const ClientDriver&) = delete;

  /// Submits and churns until `stop`, then drains acks for up to kAckDrain.
  void run(const std::stop_token& stop) {
    for (std::size_t i = 0; i < conns_.size(); ++i) dial(i);
    Clock::time_point next_tx = Clock::now();
    Clock::time_point next_churn = next_tx + kChurnPeriod;
    while (!stop.stop_requested()) {
      const Clock::time_point now = Clock::now();
      for (; next_tx <= now; next_tx += kTxInterval) submit_next();
      if (now >= next_churn) {
        churn();
        next_churn = now + kChurnPeriod;
      }
      for (std::size_t i = 0; i < conns_.size(); ++i) {
        if (conns_[i] == nullptr && now >= redial_at_[i] && dial(i)) {
          resubmit(i);
        }
      }
      pump(1);
    }
    const Clock::time_point drain_end = Clock::now() + kAckDrain;
    while (!outstanding_.empty() && Clock::now() < drain_end) pump(5);
    conns_.clear();
  }

  bool connected() const { return connected_; }
  /// Txs acked so far; safe to poll while run() is going.
  std::uint64_t acked() const {
    return acked_.load(std::memory_order_relaxed);
  }

  void report(SoakResult& r) const {
    r.ingress_submitted = submitted_;
    r.ingress_acked = acked();
    r.ingress_resubmitted = resubmitted_;
    r.ingress_churn_events = churn_events_;
    r.ingress_ack_p50_ms = ack_ms_.percentile(0.50);
    r.ingress_ack_p99_ms = ack_ms_.percentile(0.99);
  }

 private:
  static std::uint64_t seq_of(std::uint64_t client, std::uint64_t tx) {
    return tx * kClients + client;
  }

  std::size_t conn_of(std::uint64_t seq) const {
    return static_cast<std::size_t>(seq % kClients % conns_.size());
  }

  bool send(ingress::Client& conn, std::uint64_t seq) {
    const std::uint64_t client = seq % kClients;
    const std::uint64_t tx = seq / kClients;
    return conn.submit(
        client, tx,
        BytesView(ingress::client_payload(client, tx, kPayloadBytes)));
  }

  bool dial(std::size_t i) {
    auto conn = std::make_unique<ingress::Client>(
        ingress::Client::Options{"127.0.0.1", ports_[i % ports_.size()]});
    conn->on_reply = [this](std::uint64_t client, std::uint64_t tx,
                            ingress::SubmitStatus status) {
      // An accepted tx stays outstanding until its ack; on a duplicate the
      // first submission still owns the eventual ack. Any other verdict
      // means no ack will come.
      if (status != ingress::SubmitStatus::kAccepted &&
          status != ingress::SubmitStatus::kDuplicatePending) {
        outstanding_.erase(seq_of(client, tx));
      }
    };
    conn->on_ack = [this](std::uint64_t client, std::uint64_t tx,
                          std::uint64_t /*server_latency_us*/) {
      const auto it = outstanding_.find(seq_of(client, tx));
      if (it == outstanding_.end()) return;  // already acked or given up
      ack_ms_.add(std::chrono::duration<double, std::milli>(Clock::now() -
                                                            it->second)
                      .count());
      outstanding_.erase(it);
      acked_.fetch_add(1, std::memory_order_relaxed);
    };
    if (!conn->connect(kConnectTimeoutMs)) {
      redial_at_[i] = Clock::now() + kRedialBackoff;
      return false;
    }
    conns_[i] = std::move(conn);
    connected_ = true;
    return true;
  }

  void submit_next() {
    const std::uint64_t seq = next_seq_++;
    ingress::Client* conn = conns_[conn_of(seq)].get();
    if (conn != nullptr && send(*conn, seq)) {
      outstanding_.emplace(seq, Clock::now());
      ++submitted_;
    }
  }

  void churn() {
    const std::size_t i =
        static_cast<std::size_t>(rng_.below(conns_.size()));
    ++churn_events_;
    conns_[i].reset();
    if (dial(i)) resubmit(i);
  }

  /// Replays every un-acked tx of connection i after a redial; the server
  /// dedups or re-homes them instead of admitting them twice. A tx the
  /// connection cannot take is given up on.
  void resubmit(std::size_t i) {
    for (auto it = outstanding_.begin(); it != outstanding_.end();) {
      if (conn_of(it->first) != i) {
        ++it;
      } else if (send(*conns_[i], it->first)) {
        ++resubmitted_;
        ++it;
      } else {
        it = outstanding_.erase(it);
      }
    }
  }

  /// Waits up to timeout_ms for socket activity, then pumps every live
  /// connection; one the server closed is redialed after kRedialBackoff.
  void pump(int timeout_ms) {
    std::vector<pollfd> fds;
    for (const auto& conn : conns_) {
      if (conn == nullptr) continue;
      const auto events = static_cast<short>(
          conn->has_backlog() ? (POLLIN | POLLOUT) : POLLIN);
      fds.push_back(pollfd{conn->fd(), events, 0});
    }
    ingress::sock::poll_fds(fds.data(), fds.size(), timeout_ms);
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (conns_[i] != nullptr && !conns_[i]->process(0)) {
        conns_[i].reset();
        redial_at_[i] = Clock::now() + kRedialBackoff;
      }
    }
  }

  const std::vector<std::uint16_t> ports_;
  std::vector<std::unique_ptr<ingress::Client>> conns_;
  std::vector<Clock::time_point> redial_at_;
  Xoshiro256 rng_;
  /// seq -> first submit time of every tx still awaiting its ack.
  std::map<std::uint64_t, Clock::time_point> outstanding_;
  std::uint64_t next_seq_ = 0;
  bool connected_ = false;
  std::uint64_t submitted_ = 0;
  std::atomic<std::uint64_t> acked_{0};
  std::uint64_t resubmitted_ = 0;
  std::uint64_t churn_events_ = 0;
  metrics::Summary ack_ms_;
};

}  // namespace

std::string SoakResult::describe() const {
  std::string out = "chaos-soak seed=" + std::to_string(seed);
  out += " n=" + std::to_string(n);
  out += std::string(" ordering=") + core::to_string(ordering);
  out += std::string(" fault=") + core::to_string(fault);
  out += " byz_pid=" + std::to_string(byzantine_pid);
  out += " churn_pid=" + std::to_string(churn_pid);
  out += " plan=" + plan;
  if (!violation.empty()) out += " VIOLATION: " + violation;
  if (!failed_check.empty()) out += " CHECK FAILED: " + failed_check;
  return out;
}

SoakResult run_chaos_soak(const SoakOptions& opts) {
  DR_ASSERT_MSG(!opts.with_churn || !opts.wal_dir.empty(),
                "churn requires a wal_dir to restart from");
  const Committee committee = Committee::for_n(opts.n);
  DR_ASSERT_MSG(committee.valid() && committee.f >= 1,
                "chaos soak needs n >= 4 (f >= 1)");

  SoakResult result;
  result.seed = opts.seed;
  result.n = opts.n;
  result.ordering = opts.ordering;
  result.fault = opts.fault;

  // Everything adversarial derives from the one seed: the link-fault plan
  // from its own stream inside randomized(), the seat/timing choices below
  // from a tweaked stream so adding a knob never shifts the plan.
  const net::ChaosPlan plan =
      net::ChaosPlan::randomized(opts.seed, opts.n, opts.with_partition);
  result.plan = plan.describe();

  SplitMix64 sched(opts.seed ^ kSoakSeedTweak);
  const ProcessId byz_pid =
      opts.fault != core::FaultKind::kNone
          ? static_cast<ProcessId>(sched.next() % opts.n)
          : static_cast<ProcessId>(opts.n);
  ProcessId churn_pid = static_cast<ProcessId>(opts.n);
  std::uint64_t churn_stop_ms = 0;
  std::uint64_t churn_down_ms = 0;
  if (opts.with_churn) {
    // Crash an honest node: restarting the adversary mid-attack is a
    // different experiment (equivocation state does not survive a reboot).
    do {
      churn_pid = static_cast<ProcessId>(sched.next() % opts.n);
    } while (churn_pid == byz_pid);
    churn_stop_ms = 80 + sched.next() % 120;
    churn_down_ms = 40 + sched.next() % 120;
  }
  result.byzantine_pid = byz_pid;
  result.churn_pid = churn_pid;

  NodeOptions nopts;
  nopts.seed = opts.seed;
  nopts.ordering = opts.ordering;
  nopts.wal_dir = opts.wal_dir;
  nopts.ingress_enable = opts.with_ingress;

  ClusterTweaks tweaks;
  tweaks.transport_wrap = [plan](ProcessId,
                                 std::unique_ptr<net::Transport> inner) {
    return std::make_unique<net::ChaosTransport>(std::move(inner), plan);
  };
  if (byz_pid < opts.n) {
    tweaks.faults.assign(opts.n, core::FaultKind::kNone);
    tweaks.faults[byz_pid] = opts.fault;
  }

  Cluster cluster(committee, nopts, std::move(tweaks));
  const auto deadline = std::chrono::steady_clock::now() + opts.timeout;
  cluster.start();

  // Client traffic rides the whole fault schedule: the driver submits
  // through every node's ingress endpoint (including the churn victim's —
  // its clients redial the stable port and resubmit after the restart).
  std::optional<ClientDriver> clients;
  std::jthread clients_thread;
  if (opts.with_ingress) {
    std::vector<std::uint16_t> ports;
    for (ProcessId pid = 0; pid < opts.n; ++pid) {
      ports.push_back(cluster.ingress_port(pid));
    }
    const std::uint64_t client_seed = sched.next();
    clients.emplace(std::move(ports), std::max<std::size_t>(8, opts.n * 4),
                    Xoshiro256(client_seed));
    clients_thread = std::jthread(
        [&clients](const std::stop_token& stop) { clients->run(stop); });
  }

  if (opts.with_churn) {
    std::this_thread::sleep_for(std::chrono::milliseconds(churn_stop_ms));
    cluster.stop_node(churn_pid);
    std::this_thread::sleep_for(std::chrono::milliseconds(churn_down_ms));
    cluster.restart_node(churn_pid);
  }

  const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
      deadline - std::chrono::steady_clock::now());
  result.progressed = cluster.wait_all_delivered(
      opts.target_delivered, std::max(remaining, std::chrono::milliseconds(1)));
  if (clients) {
    // A small cluster can reach its delivery target while the clients are
    // still dialing; the soak checks their acks, so give them until the
    // deadline to see the first one.
    while (clients->acked() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    // Wind the clients down before the nodes: their sessions die with the
    // ingress servers, and the drain window wants live ack paths.
    clients_thread.request_stop();
    clients_thread.join();
    clients->report(result);
  }
  cluster.stop();

  auto delivered = cluster.delivered_logs();
  auto commits = cluster.commit_logs();
  std::vector<metrics::Counters> per_node;
  per_node.reserve(opts.n);
  for (ProcessId pid = 0; pid < opts.n; ++pid) {
    per_node.push_back(cluster.node(pid).counters());
  }
  result.counters = metrics::aggregate(per_node);
  for (const auto& [name, value] : per_node[byz_pid < opts.n ? byz_pid : 0]) {
    if (name == "byzantine.attacks") result.byzantine_attacks = value;
  }

  // The BAB properties quantify over correct processes; a live adversary's
  // own log is not evidence of anything (it may say whatever it likes).
  if (byz_pid < opts.n) {
    delivered.erase(delivered.begin() + byz_pid);
    commits.erase(commits.begin() + byz_pid);
    // Chain quality (§3) bounds what a Byzantine seat can claim of the
    // order, so it is judged whenever one is held.
    std::vector<ProcessId> correct_ids;
    for (ProcessId pid = 0; pid < opts.n; ++pid) {
      if (pid != byz_pid) correct_ids.push_back(pid);
    }
    result.chain_quality =
        core::audit_chain_quality(delivered, committee, correct_ids);
  }

  if (opts.canary && !delivered.empty() && delivered[0].size() >= 2) {
    // Self-test: duplicate (round, source) inside one log — an Integrity
    // violation every auditor pass must catch regardless of run timing.
    delivered[0][1].round = delivered[0][0].round;
    delivered[0][1].source = delivered[0][0].source;
  }

  if (auto v = core::audit_logs(delivered, commits)) {
    result.violation = *v;
  } else if (result.chain_quality && result.chain_quality->violation) {
    result.violation = *result.chain_quality->violation;
  }
  if (clients && !clients->connected()) {
    result.failed_check = "ingress clients never connected";
  } else if (clients && result.ingress_acked == 0) {
    result.failed_check = "no ingress tx was acked";
  } else if (byz_pid < opts.n && result.byzantine_attacks == 0) {
    result.failed_check = "the seated adversary never attacked";
  }
  result.ok = result.progressed && result.violation.empty() &&
              result.failed_check.empty();
  return result;
}

}  // namespace dr::node
