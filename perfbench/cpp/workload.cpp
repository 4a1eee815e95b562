#include "workload.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "core/audit.hpp"
#include "gate.hpp"
#include "ingress/client.hpp"
#include "ingress/sockets.hpp"
#include "metrics/counters.hpp"
#include "node/cluster.hpp"
#include "trace.hpp"
#include "txpool/transaction.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dr::ProcessId;

constexpr std::uint32_t kNodes = 4;
constexpr std::size_t kPayloadBytes = 32;  // [u64 seq][u8 node][filler]
constexpr int kSetups = 5;
constexpr std::uint64_t kSec = 1'000'000'000;  // ns

// ingress-tcp: a Zipf population of logical clients over one connection
// per node.
constexpr std::uint64_t kClients = 10'000;
constexpr double kZipfS = 1.0;
constexpr std::size_t kBatchMax = 64;

// durable-restart: the outage is counted in blocks at node 0, because the
// survivors' speed decays with run length.
constexpr ProcessId kCrashed = 2;
constexpr ProcessId kFailover = 3;
constexpr std::uint64_t kWarmBlocks = 2'000;
constexpr std::uint64_t kOutageBlocks = 1'000;
constexpr std::uint64_t kQuiesceCapNs = 2 * kSec;

// Drain: stop once every accepted tx is committed (and acked, over TCP), or
// nothing moved for kQuietNs (what is left is lost), or after kDrainCapNs.
constexpr std::uint64_t kQuietNs = 3 * kSec;
constexpr std::uint64_t kDrainCapNs = 40 * kSec;

// In process, new txs pass over a node this many blocks behind the leader.
constexpr std::uint64_t kLagBlocks = 32;

/// Node-to-node links are in process on every workload: loopback TCP links
/// add 28 threads per cluster (an acceptor, 3 writers and 3 readers per
/// node) on a host with a few cores, and their figures then spread with the
/// scheduler (README.md, "In-process node links").
struct Spec {
  double rate_tps = 10'000;
  bool tcp = false;      ///< ingress tier on; clients submit over loopback TCP
  bool durable = false;  ///< WAL on every node + crash/restart of node 2
};

Spec spec_of(const std::string& w) {
  if (w == "ingress-tcp") return {10'000, true, false};
  if (w == "durable-restart") return {10'000, false, true};
  return {10'000, false, false};
}

enum TxStatus : std::uint8_t { kSent, kAccepted, kRejected, kShed };

/// One generated tx; the vector index is its id (payload bytes 0..7).
struct TxRec {
  std::uint64_t due_ns = 0;
  std::uint64_t submit_ns = 0;  ///< start of the submit call
  std::uint32_t submit_dur_ns = 0;
  std::uint8_t node = 0;  ///< node the tx was sent to
  std::uint8_t status = kSent;
  std::uint64_t ack_ns = 0;  ///< CommitAck received (ingress-tcp)
};

struct BlockRec {
  std::uint64_t t_ns = 0;
  dr::Round round = 0;
};

/// Written only by one node's thread (its app deliver hook); read by the
/// generator through the atomic, and in full after the node stopped.
struct DeliveryLog {
  std::vector<std::pair<std::uint64_t, std::uint64_t>> txs;  ///< (id, t_ns)
  std::vector<BlockRec> blocks;
  std::atomic<std::uint64_t> tx_count{0};
};

/// The cluster's figures are read at the (2f+1)-th node: a tx counts as
/// committed once a quorum of nodes a_delivered it, and a block count is
/// the count a quorum reached. One lagging node, which the protocol
/// tolerates by design, then does not move them.
constexpr std::size_t kQuorum = 3;

/// The kQuorum-th smallest non-zero entry, or 0 if fewer are non-zero.
std::uint64_t quorum_time(std::array<std::uint64_t, 4> t) {
  std::sort(t.begin(), t.end());
  std::size_t zeros = 0;
  while (zeros < t.size() && t[zeros] == 0) ++zeros;
  return t.size() - zeros >= kQuorum ? t[zeros + kQuorum - 1] : 0;
}

/// The kQuorum-th largest of per-node counts.
double quorum_count(std::array<double, 4> c) {
  std::sort(c.begin(), c.end(), std::greater<>());
  return c[kQuorum - 1];
}

struct RestartSpan {
  const char* step;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
};

double cpu_seconds() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) / 1e6;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::uint64_t dir_bytes(const std::string& dir) {
  std::error_code ec;
  std::uint64_t total = 0;
  for (auto it = fs::recursive_directory_iterator(dir, ec);
       !ec && it != fs::recursive_directory_iterator(); it.increment(ec)) {
    if (it->is_regular_file(ec)) total += it->file_size(ec);
  }
  return total;
}

std::uint64_t counter(const dr::metrics::Counters& c, const std::string& name) {
  for (const auto& [n, v] : c) {
    if (n == name) return v;
  }
  return 0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// p-quantile of a server LatencyHistogram in ms, interpolated linearly
/// inside its log2 bucket (percentile_us alone only gives the bucket's
/// upper bound). The bucket's cumulative edges are found by bisection.
double histogram_ms(const dr::ingress::LatencyHistogram& h, double p) {
  const std::uint64_t hi = h.percentile_us(p);
  if (hi == 0) return 0.0;
  auto edge = [&](bool through) {
    double lo = 0.0;
    double up = 1.0;
    for (int i = 0; i < 40; ++i) {
      const double mid = (lo + up) / 2;
      const std::uint64_t v = h.percentile_us(mid);
      if (v < hi || (through && v == hi)) {
        lo = mid;
      } else {
        up = mid;
      }
    }
    return lo;
  };
  const double f_lo = edge(false);
  const double f_hi = edge(true);
  const double v_lo = static_cast<double>(hi + 1) / 2;
  const double v_hi = static_cast<double>(hi + 1);
  const double frac = f_hi > f_lo ? (p - f_lo) / (f_hi - f_lo) : 1.0;
  return (v_lo + (v_hi - v_lo) * std::clamp(frac, 0.0, 1.0)) / 1000.0;
}

dr::Bytes make_payload(std::uint64_t id, std::uint8_t node,
                       std::uint64_t seed) {
  dr::Bytes b(kPayloadBytes);
  std::memcpy(b.data(), &id, sizeof(id));
  b[8] = node;
  dr::SplitMix64 fill(seed ^ (id * 0x9e3779b97f4a7c15ULL));
  for (std::size_t i = 9; i < kPayloadBytes; ++i) {
    b[i] = static_cast<std::uint8_t>(fill.next());
  }
  return b;
}

class Run {
 public:
  explicit Run(const RunOptions& o)
      : o_(o), spec_(spec_of(o.workload)), rng_(o.seed) {}
  ~Run() {
    cluster_.reset();
    if (!wal_dir_.empty()) fs::remove_all(wal_dir_);
  }

  RunResult execute();

 private:
  enum Phase { kWarm, kQuiesce, kDown, kRejoining, kDone };

  std::unique_ptr<dr::node::Cluster> build_cluster(int index);
  void install_hooks(dr::node::Cluster& c);
  bool set_up(RunResult& r);
  bool connect_clients();
  void arrive(std::uint64_t due);
  void flush_ingress();
  void pump_ingress(int timeout_ms);
  void step_restart();
  void sampler_loop();
  bool all_committed() const;
  void drain();
  void finish(RunResult& r);
  void write_trace(const std::vector<FrameSpan>& spans) const;

  const RunOptions& o_;
  const Spec spec_;
  dr::Xoshiro256 rng_;
  std::vector<double> setup_s_;
  std::string wal_dir_;
  SpanLog spans_;

  std::unique_ptr<dr::node::Cluster> cluster_;
  /// Held while node 2's slot is replaced and while the sampler reads nodes.
  std::mutex cluster_mu_;
  std::array<DeliveryLog, kNodes> logs_;

  std::uint64_t t_start_ = 0;
  std::uint64_t t_end_ = 0;
  std::int64_t node0_offset_us_ = 0;  ///< now_ns()/1000 - node 0's now_us()
  double cpu_window_s_ = 0.0;
  double peak_rss_mb_ = 0.0;  ///< high-water mark at the end of the window
  std::uint64_t drain_ns_ = 0;

  // Generator state.
  std::vector<TxRec> txs_;
  std::uint64_t rejected_ = 0;
  std::uint64_t shed_ = 0;
  std::uint64_t accepted_ = 0;
  std::uint64_t replies_ = 0;
  std::uint64_t acked_ = 0;
  std::vector<double> zipf_cdf_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> tick_;  ///< (client, id)
  std::array<std::unique_ptr<dr::ingress::Client>, kNodes> clients_;
  std::vector<std::uint32_t> client_io_ns_;

  // durable-restart schedule.
  Phase phase_ = kWarm;
  bool failed_over_ = false;
  std::atomic<bool> node2_out_{false};
  std::uint64_t t_quiesce_ = 0;
  std::uint64_t lost_at_crash_ = 0;
  std::uint64_t crash_own_count_ = 0;
  std::uint64_t crash_base_ = 0;
  std::uint64_t rejoin_target_ = 0;
  std::uint64_t t_restart_ = 0;
  std::uint64_t t_replayed_ = 0;
  std::uint64_t t_rejoined_ = 0;
  dr::metrics::Counters crashed_counters_;
  std::vector<RestartSpan> restart_spans_;

  // Live sampler (traced runs only).
  std::thread sampler_;
  std::atomic<bool> stop_sampler_{false};
  double sum_pending_ = 0;
  double sum_in_flight_ = 0;
  std::uint64_t samples_ = 0;
  std::uint64_t lag_max_ = 0;
};

std::unique_ptr<dr::node::Cluster> Run::build_cluster(int index) {
  dr::node::NodeOptions opts;  // shipped defaults, except:
  opts.ingress_enable = spec_.tcp;
  if (spec_.durable) {
    wal_dir_ = o_.work_dir + "/wal-" + std::to_string(::getpid()) + "-" +
               std::to_string(index);
    fs::remove_all(wal_dir_);
    opts.wal_dir = wal_dir_;
  }
  dr::node::ClusterTweaks tweaks;
  if (o_.trace) {
    tweaks.transport_wrap = [this](ProcessId,
                                   std::unique_ptr<dr::net::Transport> inner) {
      return make_tracing_transport(std::move(inner), spans_);
    };
  }
  return std::make_unique<dr::node::Cluster>(dr::Committee::for_n(kNodes),
                                             opts, std::move(tweaks));
}

void Run::install_hooks(dr::node::Cluster& c) {
  for (ProcessId p = 0; p < kNodes; ++p) {
    DeliveryLog* log = &logs_[p];
    c.node(p).set_app_deliver([log](const dr::Bytes& block, dr::Round round,
                                    ProcessId, std::uint64_t) {
      const std::uint64_t t = now_ns();
      log->blocks.push_back(BlockRec{t, round});
      auto txs = dr::txpool::decode_block(dr::BytesView(block));
      if (!txs.ok()) return;
      for (const dr::txpool::Transaction& tx : txs.value()) {
        if (tx.payload.size() != kPayloadBytes) continue;
        std::uint64_t id = 0;
        std::memcpy(&id, tx.payload.data(), sizeof(id));
        log->txs.emplace_back(id, t);
      }
      log->tx_count.store(log->txs.size(), std::memory_order_release);
    });
  }
}

bool Run::set_up(RunResult& r) {
  // Set-up is construction plus start() until every node delivered a block,
  // repeated so the median is steady; the last cluster is the measured one.
  const int rounds = o_.trace ? 1 : kSetups;
  for (int i = 0; i < rounds; ++i) {
    const std::uint64_t t0 = now_ns();
    auto c = build_cluster(i);
    const bool last = i + 1 == rounds;
    if (last) install_hooks(*c);
    c->start();
    if (!c->wait_all_delivered(1, std::chrono::seconds(60))) {
      r.violation = "set-up stalled before every node delivered a block";
      return false;
    }
    setup_s_.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (last) {
      cluster_ = std::move(c);
    } else {
      c->stop();
      c.reset();
      if (!wal_dir_.empty()) fs::remove_all(wal_dir_);
    }
  }
  return true;
}

bool Run::connect_clients() {
  double total = 0.0;
  zipf_cdf_.resize(kClients);
  for (std::uint64_t i = 0; i < kClients; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    zipf_cdf_[i] = total;
  }
  for (ProcessId p = 0; p < kNodes; ++p) {
    dr::ingress::Client::Options co;
    co.port = cluster_->ingress_port(p);
    auto c = std::make_unique<dr::ingress::Client>(co);
    c->on_reply = [this](std::uint64_t, std::uint64_t id,
                         dr::ingress::SubmitStatus st) {
      if (id >= txs_.size() || txs_[id].status != kSent) return;
      ++replies_;
      if (st == dr::ingress::SubmitStatus::kAccepted) {
        txs_[id].status = kAccepted;
        ++accepted_;
      } else {
        txs_[id].status = kRejected;
        ++rejected_;
      }
    };
    c->on_ack = [this](std::uint64_t, std::uint64_t id, std::uint64_t) {
      if (id >= txs_.size() || txs_[id].ack_ns != 0) return;
      txs_[id].ack_ns = now_ns();
      ++acked_;
    };
    if (!c->connect(2'000)) return false;
    clients_[p] = std::move(c);
  }
  return true;
}

void Run::arrive(std::uint64_t due) {
  const std::uint64_t id = txs_.size();
  TxRec rec;
  rec.due_ns = due;
  if (spec_.tcp) {
    const double u = rng_.uniform() * zipf_cdf_.back();
    const auto client = static_cast<std::uint64_t>(
        std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
        zipf_cdf_.begin());
    rec.node = static_cast<std::uint8_t>(client % kNodes);
    txs_.push_back(rec);
    tick_.emplace_back(client, id);
    return;
  }
  // In process: round-robin over the nodes, as a client would over its
  // replicas, passing over one that has failed over (node 2 in
  // durable-restart) or fallen kLagBlocks behind the leader: a node that far
  // back advances without proposing, so its mempool would hold the tx
  // until it regained the frontier.
  std::uint64_t lead = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    if (p == kCrashed && failed_over_) continue;
    lead = std::max(lead, cluster_->node(p).delivered_count());
  }
  auto node = static_cast<ProcessId>(id % kNodes);
  for (ProcessId k = 0; k < kNodes; ++k) {
    const auto p = static_cast<ProcessId>((id + k) % kNodes);
    if (p == kCrashed && failed_over_) continue;
    if (cluster_->node(p).delivered_count() + kLagBlocks >= lead) {
      node = p;
      break;
    }
  }
  rec.node = static_cast<std::uint8_t>(node);
  dr::txpool::Transaction tx;
  tx.id = id + 1;
  tx.payload = make_payload(id, rec.node, o_.seed);
  rec.submit_ns = now_ns();
  const auto st = cluster_->node(node).submit_tx(std::move(tx));
  rec.submit_dur_ns = static_cast<std::uint32_t>(now_ns() - rec.submit_ns);
  if (st == dr::ingress::SubmitStatus::kAccepted) {
    rec.status = kAccepted;
    ++accepted_;
  } else {
    rec.status = kRejected;
    ++rejected_;
  }
  txs_.push_back(rec);
}

void Run::flush_ingress() {
  // One SubmitBatch per logical client per tick, as a client library would.
  std::sort(tick_.begin(), tick_.end());
  for (std::size_t i = 0; i < tick_.size();) {
    const std::uint64_t client = tick_[i].first;
    dr::ingress::SubmitBatch batch;
    batch.client_id = client;
    const std::size_t first = i;
    while (i < tick_.size() && tick_[i].first == client &&
           batch.txs.size() < kBatchMax) {
      const std::uint64_t id = tick_[i].second;
      batch.txs.push_back(dr::ingress::TxSubmit{
          id, make_payload(id, txs_[id].node, o_.seed)});
      ++i;
    }
    dr::ingress::Client& c = *clients_[client % kNodes];
    const std::uint64_t t0 = now_ns();
    const bool ok = c.connected() && c.submit_batch(batch);
    const auto dur = static_cast<std::uint32_t>(now_ns() - t0);
    for (std::size_t k = first; k < i; ++k) {
      TxRec& rec = txs_[tick_[k].second];
      rec.submit_ns = t0;
      rec.submit_dur_ns = dur;
      if (!ok) {
        rec.status = kShed;
        ++shed_;
      }
    }
  }
  tick_.clear();
}

void Run::pump_ingress(int timeout_ms) {
  std::array<pollfd, kNodes> pfds{};
  std::size_t count = 0;
  for (const auto& c : clients_) {
    if (c == nullptr || c->fd() < 0) continue;
    pfds[count++] = pollfd{
        c->fd(),
        static_cast<short>(c->has_backlog() ? (POLLIN | POLLOUT) : POLLIN), 0};
  }
  if (count > 0) dr::ingress::sock::poll_fds(pfds.data(), count, timeout_ms);
  for (auto& c : clients_) {
    if (c == nullptr) continue;
    const std::uint64_t t0 = now_ns();
    c->process(0);
    client_io_ns_.push_back(static_cast<std::uint32_t>(now_ns() - t0));
  }
}

void Run::step_restart() {
  dr::node::Node& n0 = cluster_->node(0);
  const std::uint64_t now = now_ns();
  switch (phase_) {
    case kWarm:
      if (n0.delivered_count() >= kWarmBlocks) {
        failed_over_ = true;
        t_quiesce_ = now;
        phase_ = kQuiesce;
      }
      return;
    case kQuiesce: {
      // The clients have moved to node 3; crash node 2 once its mempool
      // holds nothing of theirs (or after a cap, losing what it holds).
      dr::node::Node& n2 = cluster_->node(kCrashed);
      const std::uint64_t held = n2.mempool().pending() + n2.mempool().in_flight();
      if (held != 0 && now - t_quiesce_ < kQuiesceCapNs) return;
      lost_at_crash_ = held;
      {
        std::lock_guard<std::mutex> lk(cluster_mu_);
        node2_out_ = true;
        cluster_->stop_node(kCrashed);
      }
      restart_spans_.push_back({"stop_node", now, now_ns()});
      crashed_counters_ = cluster_->node(kCrashed).counters();
      crash_own_count_ = cluster_->node(kCrashed).delivered_count();
      crash_base_ = n0.delivered_count();
      phase_ = kDown;
      return;
    }
    case kDown:
      if (n0.delivered_count() < crash_base_ + kOutageBlocks) return;
      rejoin_target_ = n0.delivered_count();
      t_restart_ = now;
      {
        std::lock_guard<std::mutex> lk(cluster_mu_);
        cluster_->restart_node(kCrashed);
      }
      restart_spans_.push_back({"restart_node", now, now_ns()});
      phase_ = kRejoining;
      return;
    case kRejoining: {
      const std::uint64_t c2 = cluster_->node(kCrashed).delivered_count();
      if (t_replayed_ == 0 && c2 >= crash_own_count_) {
        t_replayed_ = now;
        restart_spans_.push_back({"replay_done", t_restart_, now});
      }
      if (c2 >= rejoin_target_) {
        t_rejoined_ = now;
        restart_spans_.push_back({"rejoined", t_restart_, now});
        node2_out_ = false;
        phase_ = kDone;
      }
      return;
    }
    case kDone:
      return;
  }
}

void Run::sampler_loop() {
  while (!stop_sampler_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lk(cluster_mu_);
      const std::uint64_t now = now_ns();
      std::uint64_t pending = 0;
      std::uint64_t in_flight = 0;
      std::uint64_t lo = std::numeric_limits<std::uint64_t>::max();
      std::uint64_t hi = 0;
      for (ProcessId p = 0; p < kNodes; ++p) {
        if (p == kCrashed && node2_out_.load()) continue;
        dr::node::Node& n = cluster_->node(p);
        pending += n.mempool().pending();
        in_flight += n.mempool().in_flight();
        lo = std::min(lo, n.delivered_count());
        hi = std::max(hi, n.delivered_count());
      }
      if (now >= t_start_ && now < t_end_) {
        sum_pending_ += static_cast<double>(pending);
        sum_in_flight_ += static_cast<double>(in_flight);
        ++samples_;
        lag_max_ = std::max(lag_max_, hi - lo);
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool Run::all_committed() const {
  // Exactly-once makes a node's delivered count reach accepted_ only when
  // it delivered every accepted tx.
  std::size_t complete = 0;
  for (const DeliveryLog& l : logs_) {
    complete += l.tx_count.load(std::memory_order_acquire) >= accepted_ ? 1 : 0;
  }
  if (complete < kQuorum) return false;
  return !spec_.tcp || (replies_ + shed_ == txs_.size() && acked_ >= accepted_);
}

void Run::drain() {
  const std::uint64_t start = now_ns();
  std::uint64_t last_sig = 0;
  std::uint64_t last_change = start;
  for (;;) {
    const std::uint64_t now = now_ns();
    if (spec_.durable) step_restart();
    const bool restart_done = !spec_.durable || phase_ == kDone;
    if (restart_done && all_committed()) return;
    std::uint64_t sig = acked_ + replies_ + static_cast<std::uint64_t>(phase_);
    for (const DeliveryLog& l : logs_) sig += l.tx_count.load();
    if (sig != last_sig) {
      last_sig = sig;
      last_change = now;
    }
    if (restart_done && now - last_change > kQuietNs) return;
    if (now - start > kDrainCapNs) return;
    if (spec_.tcp) {
      pump_ingress(1);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

RunResult Run::execute() {
  RunResult r;
  if (!set_up(r)) return r;
  // perfbench/run.py reruns a sub-run that crashed before this line: the
  // cluster fixture picks free ingress ports, closes them and binds them
  // later, and an outgoing connect may take one in between.
  std::printf("set-up done\n");
  std::fflush(stdout);
  if (spec_.tcp && !connect_clients()) {
    r.violation = "an ingress client could not connect";
    return r;
  }
  txs_.reserve(static_cast<std::size_t>(spec_.rate_tps * o_.seconds * 1.1));
  if (o_.trace) sampler_ = std::thread([this] { sampler_loop(); });

  const double cpu0 = cpu_seconds();
  t_start_ = now_ns();
  t_end_ = t_start_ + static_cast<std::uint64_t>(o_.seconds * 1e9);
  node0_offset_us_ = static_cast<std::int64_t>(t_start_ / 1000) -
                     static_cast<std::int64_t>(cluster_->node(0).now_us());
  const double gap_ns = 1e9 / spec_.rate_tps;
  double next_due = static_cast<double>(t_start_);
  for (;;) {
    const std::uint64_t now = now_ns();
    if (now >= t_end_) break;
    while (next_due <= static_cast<double>(now)) {
      arrive(static_cast<std::uint64_t>(next_due));
      next_due += -std::log(std::max(rng_.uniform(), 1e-12)) * gap_ns;
    }
    if (spec_.durable) step_restart();
    if (spec_.tcp) {
      flush_ingress();
      pump_ingress(1);
    } else {
      const double wake = std::min(next_due, static_cast<double>(t_end_));
      const double wait = wake - static_cast<double>(now_ns());
      if (wait > 0) {
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(static_cast<std::int64_t>(wait)));
      }
    }
  }
  cpu_window_s_ = cpu_seconds() - cpu0;
  peak_rss_mb_ = peak_rss_mb();
  const std::uint64_t drain_start = now_ns();
  drain();
  drain_ns_ = now_ns() - drain_start;

  if (sampler_.joinable()) {
    stop_sampler_ = true;
    sampler_.join();
  }
  for (auto& c : clients_) {
    if (c != nullptr) c->close();
  }
  cluster_->stop();
  if (spec_.durable && phase_ != kDone) {
    r.violation = "node 2 did not regain the frontier before the drain cap";
    return r;
  }
  finish(r);
  return r;
}

void Run::finish(RunResult& r) {
  std::vector<dr::metrics::Counters> per_node;
  for (ProcessId p = 0; p < kNodes; ++p) {
    per_node.push_back(cluster_->node(p).counters());
  }
  if (!crashed_counters_.empty()) per_node.push_back(crashed_counters_);

  // Correctness gate: shared auditors over every node, then exactly-once
  // over the benchmark's own tx ids at every node that logged them.
  if (auto v = dr::core::audit_logs(cluster_->delivered_logs(),
                                    cluster_->commit_logs())) {
    r.violation = "audit_logs: " + *v;
    return;
  }
  std::vector<bool> accepted(txs_.size());
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    accepted[i] = txs_[i].status == kAccepted || txs_[i].ack_ns != 0;
  }
  // at[id][p]: when node p a_delivered tx id (0 = not at all).
  std::vector<std::array<std::uint64_t, kNodes>> at(txs_.size());
  for (ProcessId p = 0; p < kNodes; ++p) {
    std::vector<std::uint64_t> ids;
    ids.reserve(logs_[p].txs.size());
    for (const auto& [id, t] : logs_[p].txs) {
      ids.push_back(id);
      if (id < at.size() && at[id][p] == 0) at[id][p] = t;
    }
    const Tally tally = tally_exactly_once(ids, accepted);
    if (tally.duplicates != 0 || tally.unknown != 0) {
      r.violation = "exactly-once at node " + std::to_string(p) + ": " +
                    std::to_string(tally.duplicates) + " duplicate, " +
                    std::to_string(tally.unknown) + " unknown tx ids";
      return;
    }
  }
  r.correct = true;

  // Commit = a_deliver at a quorum; confirmation = the client's CommitAck
  // over TCP, the a_deliver at the node the tx was sent to in process.
  std::vector<std::uint64_t> commit_ns(txs_.size(), 0);
  std::vector<std::uint64_t> confirm_ns(txs_.size(), 0);
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    commit_ns[i] = quorum_time(at[i]);
    confirm_ns[i] = spec_.tcp ? txs_[i].ack_ns : at[i][txs_[i].node];
  }

  const double window_s = static_cast<double>(t_end_ - t_start_) / 1e9;
  auto in_window = [&](std::uint64_t t, double from, double to) {
    const double rel = (static_cast<double>(t) - static_cast<double>(t_start_)) / 1e9;
    return rel >= from * window_s && rel < to * window_s;
  };

  r.attempted = txs_.size();
  std::vector<float> commit_ms;
  std::vector<float> confirm_ms;
  std::uint64_t committed_in_window = 0;
  std::uint64_t confirmed_in_window = 0;
  std::array<std::vector<float>, kNodes> by_source;
  std::uint64_t no_commit = 0;
  std::uint64_t no_confirm = 0;
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    const TxRec& t = txs_[i];
    no_commit += accepted[i] && commit_ns[i] == 0;
    no_confirm += accepted[i] && confirm_ns[i] == 0;
    if (!accepted[i] || commit_ns[i] == 0 || (spec_.tcp && t.ack_ns == 0)) {
      ++r.failed;
    }
    if (commit_ns[i] != 0) {
      const auto ms = static_cast<float>(
          static_cast<double>(commit_ns[i] - t.due_ns) / 1e6);
      commit_ms.push_back(ms);
      by_source[t.node].push_back(ms);
      if (in_window(commit_ns[i], 0, 1)) ++committed_in_window;
    }
    if (confirm_ns[i] != 0) {
      confirm_ms.push_back(static_cast<float>(
          static_cast<double>(confirm_ns[i] - t.due_ns) / 1e6));
      if (in_window(confirm_ns[i], 0, 1)) ++confirmed_in_window;
    }
  }
  std::fprintf(stderr,
               "perfbench: %llu rejected/shed, %llu accepted txs not committed "
               "by a quorum, %llu not confirmed; drain took %.2f s\n",
               static_cast<unsigned long long>(rejected_ + shed_),
               static_cast<unsigned long long>(no_commit),
               static_cast<unsigned long long>(no_confirm),
               static_cast<double>(drain_ns_) / 1e9);
  if (no_commit != 0) {
    std::array<std::uint64_t, kNodes> missing{};
    for (std::size_t i = 0; i < txs_.size(); ++i) {
      if (accepted[i] && commit_ns[i] == 0) ++missing[txs_[i].node];
    }
    for (ProcessId p = 0; p < kNodes; ++p) {
      const auto& c = per_node[p];
      std::fprintf(stderr,
                   "perfbench: node %u missing=%llu delivered=%llu round=%llu "
                   "pending=%llu in_flight=%llu drained=%llu buffer=%llu\n",
                   p, static_cast<unsigned long long>(missing[p]),
                   static_cast<unsigned long long>(
                       cluster_->node(p).delivered_count()),
                   static_cast<unsigned long long>(counter(c, "builder.current_round")),
                   static_cast<unsigned long long>(counter(c, "mempool.pending")),
                   static_cast<unsigned long long>(counter(c, "mempool.in_flight")),
                   static_cast<unsigned long long>(counter(c, "mempool.drained")),
                   static_cast<unsigned long long>(counter(c, "builder.buffer_size")));
    }
  }
  // Blocks a quorum a_delivered inside [from, to) of the window.
  auto quorum_blocks = [&](double from, double to) {
    std::array<double, kNodes> n{};
    for (ProcessId p = 0; p < kNodes; ++p) {
      for (const BlockRec& b : logs_[p].blocks) n[p] += in_window(b.t_ns, from, to);
    }
    return quorum_count(n);
  };
  const double blocks = quorum_blocks(0, 1);
  const double failed_share = ratio(static_cast<double>(r.failed),
                                    static_cast<double>(r.attempted));

  r.end_to_end = {
      {"setup_s", percentile(setup_s_, 0.5), "s"},
      {"blocks_per_s", blocks / window_s, "1/s"},
      {"commit_p50_ms", percentile(commit_ms, 0.5), "ms"},
      {"ack_p50_ms", percentile(confirm_ms, 0.5), "ms"},
      {"committed_tps",
       static_cast<double>(committed_in_window) / window_s, "tx/s"},
      {"success_share", 1.0 - failed_share, "share"},
      // With GC off memory grows with every block, so peak RSS over a fixed
      // window would rise with any speed-up; the gate reads it per block a
      // quorum delivered from start() to the end of the window.
      {"rss_kb_per_block",
       ratio(peak_rss_mb_ * 1024.0, quorum_blocks(-1e9, 1)), "KB"},
  };

  // Throughput and latency over the run, one tenth of the window at a time.
  for (int k = 0; k < 10; ++k) {
    const double from = k / 10.0;
    const double to = (k + 1) / 10.0;
    std::vector<float> lat;
    for (std::size_t i = 0; i < txs_.size(); ++i) {
      if (commit_ns[i] != 0 && in_window(txs_[i].due_ns, from, to)) {
        lat.push_back(static_cast<float>(
            static_cast<double>(commit_ns[i] - txs_[i].due_ns) / 1e6));
      }
    }
    r.tenths.push_back(
        {quorum_blocks(from, to) / (window_s / 10), percentile(lat, 0.5)});
  }

  if (!o_.trace) return;

  // --- Per-layer metrics (traced run) ---
  const dr::metrics::Counters sum = dr::metrics::aggregate(per_node);
  const dr::metrics::Counters& c0 = per_node[0];
  auto get = [&](const char* name) {
    return static_cast<double>(counter(sum, name));
  };
  std::vector<std::uint32_t> submit_ns;
  double late_max_ms = 0.0;
  for (const TxRec& t : txs_) {
    if (t.submit_ns == 0) continue;
    submit_ns.push_back(t.submit_dur_ns);
    late_max_ms = std::max(
        late_max_ms, static_cast<double>(t.submit_ns - t.due_ns) / 1e6);
  }
  const double accept_rate = static_cast<double>(accepted_) / window_s;
  double server_p50 = 0.0;
  double server_p99 = 0.0;
  if (spec_.tcp) {
    for (ProcessId p = 0; p < kNodes; ++p) {
      const auto& h = cluster_->node(p).ingress()->ack_latency();
      server_p50 = std::max(server_p50, histogram_ms(h, 0.50));
      server_p99 = std::max(server_p99, histogram_ms(h, 0.99));
    }
  }
  double worst_source = 0.0;
  for (const auto& v : by_source) {
    worst_source = std::max(worst_source, percentile(v, 0.5));
  }
  std::array<double, kNodes> rounds_at{};
  dr::Round last_round = 0;
  for (ProcessId p = 0; p < kNodes; ++p) {
    dr::Round first = 0;
    dr::Round last = 0;
    for (const BlockRec& b : logs_[p].blocks) {
      if (!in_window(b.t_ns, 0, 1)) continue;
      if (first == 0) first = b.round;
      last = std::max(last, b.round);
    }
    rounds_at[p] = static_cast<double>(last - first);
    last_round = std::max(last_round, last);
  }
  const double rounds = quorum_count(rounds_at);

  const auto commits0 = cluster_->node(0).commits_snapshot();
  std::vector<double> gaps_ms;
  std::uint64_t direct = 0;
  for (std::size_t i = 0; i < commits0.size(); ++i) {
    direct += commits0[i].direct ? 1 : 0;
    const auto t_ns = static_cast<std::uint64_t>(
        (static_cast<std::int64_t>(commits0[i].time) + node0_offset_us_) * 1000);
    if (i > 0 && in_window(t_ns, 0, 1)) {
      gaps_ms.push_back(
          static_cast<double>(commits0[i].time - commits0[i - 1].time) / 1e3);
    }
  }
  const double waves = static_cast<double>(counter(c0, "ordering.waves_evaluated"));
  const double direct_waves =
      waves - static_cast<double>(
                  counter(c0, "ordering.waves_without_direct_commit"));

  const bool restarted = t_rejoined_ != 0;
  const double rejoin_s =
      restarted ? static_cast<double>(t_rejoined_ - t_restart_) / 1e9 : 0.0;
  const double replay_s =
      restarted ? static_cast<double>(t_replayed_ - t_restart_) / 1e9 : 0.0;
  const dr::metrics::Counters& c2 = per_node[kCrashed];
  const double catchup_vertices =
      static_cast<double>(counter(c2, "catchup.vertices_accepted"));
  const dr::metrics::Counters& catchup_src = restarted ? c2 : sum;

  const std::vector<FrameSpan> spans = spans_.collect();
  double frames = 0, bytes = 0, bracha = 0, bracha_bytes = 0, sends = 0;
  double sync_frames = 0;
  std::vector<std::uint32_t> send_ns;
  std::vector<std::uint32_t> recv_ns;
  for (const FrameSpan& s : spans) {
    if (s.channel == static_cast<std::uint8_t>(dr::net::Channel::kSync) &&
        !s.recv) {
      ++sync_frames;
    }
    if (!in_window(s.start_ns, 0, 1)) continue;
    if (s.recv) {
      recv_ns.push_back(s.dur_ns);
      continue;
    }
    send_ns.push_back(s.dur_ns);
    ++frames;
    bytes += s.bytes;
    if (s.channel == static_cast<std::uint8_t>(dr::net::Channel::kBracha)) {
      ++bracha;
      bracha_bytes += s.bytes;
      if (s.rbc_type == 1) ++sends;  // Bracha SEND, n per broadcast
    }
  }
  const double vertices = sends / kNodes;
  const double wal_bytes = spec_.durable ? static_cast<double>(dir_bytes(wal_dir_)) : 0.0;
  const double store_records =
      get("store.vertices_appended") + get("store.proposals_appended");

  r.per_layer = {
      {"ingress.submit_us_p50", percentile(submit_ns, 0.5) / 1e3, "us"},
      {"ingress.submit_us_p99", percentile(submit_ns, 0.99) / 1e3, "us"},
      {"ingress.mempool_wait_ms",
       ratio(ratio(sum_pending_, static_cast<double>(samples_)), accept_rate) * 1e3,
       "ms"},
      {"ingress.inflight_ms",
       ratio(ratio(sum_in_flight_, static_cast<double>(samples_)), accept_rate) *
           1e3,
       "ms"},
      {"ingress.server_ack_p50_ms", server_p50, "ms"},
      {"ingress.server_ack_p99_ms", server_p99, "ms"},
      {"ingress.client_io_us_p99", percentile(client_io_ns_, 0.99) / 1e3, "us"},
      {"ingress.ack_p99_ms", percentile(confirm_ms, 0.99), "ms"},
      {"ingress.acked_tps",
       static_cast<double>(confirmed_in_window) / window_s, "tx/s"},
      {"ingress.acks_dropped", get("ingress.acks_dropped"), "count"},
      {"ingress.busy_rejects",
       get("mempool.rejected_busy") + get("ingress.busy_hook_rejects"), "count"},
      {"ingress.failed_share", failed_share, "share"},
      {"gen.late_ms_max", late_max_ms, "ms"},
      {"net.frames_per_block", ratio(frames, blocks), "frames"},
      {"net.bytes_per_block", ratio(bytes, blocks), "B"},
      {"net.bracha_frames_per_block", ratio(bracha, blocks),
       "frames"},
      {"net.sync_frames", sync_frames, "count"},
      {"net.send_us_p99", percentile(send_ns, 0.99) / 1e3, "us"},
      {"net.recv_us_p99", percentile(recv_ns, 0.99) / 1e3, "us"},
      {"net.backpressure_overflows", get("transport.backpressure_overflows"),
       "count"},
      {"rbc.frames_per_vertex", ratio(bracha, vertices), "frames"},
      {"rbc.bytes_per_vertex", ratio(bracha_bytes, vertices), "B"},
      {"dag.rounds_per_s", rounds / window_s, "1/s"},
      {"dag.blocks_per_round", ratio(blocks, rounds),
       "blocks"},
      {"dag.worst_source_p50_ms", worst_source, "ms"},
      {"dag.gc_dropped_deliveries", get("builder.gc_dropped_deliveries"),
       "count"},
      {"dag.quota_rejections", get("builder.quota_rejections"), "count"},
      {"dag.rounds_skipped", get("builder.rounds_skipped"), "count"},
      {"core.waves_per_commit", ratio(waves, direct_waves), "waves"},
      {"core.direct_commit_share",
       ratio(static_cast<double>(direct), static_cast<double>(commits0.size())),
       "share"},
      {"core.blocks_per_commit",
       ratio(static_cast<double>(logs_[0].blocks.size()),
             static_cast<double>(commits0.size())),
       "blocks"},
      {"core.commit_gap_ms_p50", percentile(gaps_ms, 0.5), "ms"},
      {"core.commit_gap_ms_max", percentile(gaps_ms, 1.0), "ms"},
      {"storage.replay_s", replay_s, "s"},
      {"storage.bytes_per_vertex", ratio(get("store.bytes_appended"), store_records),
       "B"},
      {"storage.wal_mb_end", wal_bytes / (1024.0 * 1024.0), "MB"},
      {"storage.recovered_vertices",
       static_cast<double>(counter(c2, "store.recovered_vertices")), "count"},
      {"storage.compactions", get("store.compactions"), "count"},
      {"catchup.rejoin_s", rejoin_s, "s"},
      {"catchup.s", rejoin_s - replay_s, "s"},
      {"catchup.vertices_per_s", ratio(catchup_vertices, rejoin_s - replay_s),
       "1/s"},
      {"catchup.retry_share",
       ratio(static_cast<double>(counter(catchup_src, "catchup.retries")),
             static_cast<double>(counter(catchup_src, "catchup.requests_sent"))),
       "share"},
      {"node.blocks_per_s_final", quorum_blocks(0.75, 1) / (0.25 * window_s),
       "1/s"},
      {"node.cpu_cores", cpu_window_s_ / window_s, "cores"},
      {"node.peak_rss_mb", peak_rss_mb_, "MB"},
      {"node.delivery_lag_blocks_max", static_cast<double>(lag_max_), "blocks"},
      {"node.commit_p99_ms", percentile(commit_ms, 0.99), "ms"},
  };
  if (!spec_.tcp) {
    r.not_exercised = {"ingress.server_ack_p50_ms", "ingress.server_ack_p99_ms",
                       "ingress.client_io_us_p99", "ingress.acks_dropped"};
  }
  if (!spec_.durable) {
    for (const char* n :
         {"storage.replay_s", "storage.bytes_per_vertex", "storage.wal_mb_end",
          "storage.recovered_vertices", "storage.compactions",
          "catchup.rejoin_s", "catchup.s", "catchup.vertices_per_s"}) {
      r.not_exercised.emplace_back(n);
    }
  }

  // Raw counters next to their bases.
  const double b0 = static_cast<double>(logs_[0].blocks.size());
  const double requests = static_cast<double>(counter(catchup_src, "catchup.requests_sent"));
  auto line = [&](const char* name, double v, double base, const char* per) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-34s %12.0f  %10.4f per %s", name, v,
                  ratio(v, base), per);
    r.counter_lines.emplace_back(buf);
  };
  line("builder.gc_dropped_deliveries", get("builder.gc_dropped_deliveries"), b0,
       "block");
  line("builder.quota_rejections", get("builder.quota_rejections"), b0, "block");
  line("builder.rounds_skipped", get("builder.rounds_skipped"),
       static_cast<double>(last_round), "round");
  line("ordering.waves_evaluated", waves, static_cast<double>(commits0.size()),
       "commit");
  line("ordering.waves_without_direct_commit",
       static_cast<double>(counter(c0, "ordering.waves_without_direct_commit")),
       waves, "wave");
  line("transport.backpressure_overflows",
       get("transport.backpressure_overflows"), b0, "block");
  line("mempool.rejected_busy", get("mempool.rejected_busy"),
       static_cast<double>(r.attempted), "tx");
  line("ingress.acks_dropped", get("ingress.acks_dropped"),
       static_cast<double>(acked_), "acked tx");
  line("catchup.retries", static_cast<double>(counter(catchup_src, "catchup.retries")),
       requests, "request");
  line("catchup.vertices_accepted",
       static_cast<double>(counter(catchup_src, "catchup.vertices_accepted")),
       requests, "request");
  line("catchup.requests_sent", requests, restarted ? 1.0 : 0.0, "rejoin");
  line("builder.sync_deliveries", get("builder.sync_deliveries"),
       restarted ? 1.0 : 0.0, "rejoin");
  line("store.bytes_appended", get("store.bytes_appended"), store_records,
       "record");
  line("store.compactions", get("store.compactions"), waves, "wave");
  line("durable.txs_held_at_crash", static_cast<double>(lost_at_crash_),
       restarted ? 1.0 : 0.0, "rejoin");

  // Self time per stage, derived from the spans.
  auto stage = [&](const char* name, double total_ns, double count) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%-34s %12.0f spans  mean %10.1f us",
                  name, count, ratio(total_ns, count) / 1e3);
    r.self_time_lines.emplace_back(buf);
  };
  double wait = 0, call = 0, to_commit = 0, to_ack = 0, n_sub = 0, n_com = 0,
         n_ack = 0;
  for (std::size_t i = 0; i < txs_.size(); ++i) {
    const TxRec& t = txs_[i];
    if (t.submit_ns == 0) continue;
    ++n_sub;
    wait += static_cast<double>(t.submit_ns - t.due_ns);
    call += t.submit_dur_ns;
    const std::uint64_t submitted = t.submit_ns + t.submit_dur_ns;
    if (commit_ns[i] > submitted) {
      ++n_com;
      to_commit += static_cast<double>(commit_ns[i] - submitted);
    }
    if (spec_.tcp && t.ack_ns > commit_ns[i] && commit_ns[i] != 0) {
      ++n_ack;
      to_ack += static_cast<double>(t.ack_ns - commit_ns[i]);
    }
  }
  stage("tx: due -> submit call (generator)", wait, n_sub);
  stage("tx: submit call", call, n_sub);
  stage("tx: submitted -> quorum a_deliver", to_commit, n_com);
  if (spec_.tcp) stage("tx: quorum a_deliver -> ack", to_ack, n_ack);
  std::array<double, dr::net::kChannelCount * 2> ch_ns{};
  std::array<double, dr::net::kChannelCount * 2> ch_n{};
  for (const FrameSpan& s : spans) {
    if (!in_window(s.start_ns, 0, 1) || s.channel >= dr::net::kChannelCount) continue;
    ch_ns[s.channel * 2 + s.recv] += s.dur_ns;
    ch_n[s.channel * 2 + s.recv] += 1;
  }
  for (std::uint32_t ch = 0; ch < dr::net::kChannelCount; ++ch) {
    for (int dir = 0; dir < 2; ++dir) {
      if (ch_n[ch * 2 + dir] == 0) continue;
      const std::string name = "net: channel " + std::to_string(ch) +
                               (dir ? " receive callback" : " send");
      stage(name.c_str(), ch_ns[ch * 2 + dir], ch_n[ch * 2 + dir]);
    }
  }
  for (const RestartSpan& s : restart_spans_) {
    stage((std::string("restart: ") + s.step).c_str(),
          static_cast<double>(s.end_ns - s.start_ns), 1);
  }
  write_trace(spans);
}

void Run::write_trace(const std::vector<FrameSpan>& spans) const {
  // The spans stay in memory during the run; a bounded, evenly strided
  // sample of each kind is written here, with every restart span.
  constexpr std::size_t kMaxLines = 20'000;
  fs::create_directories(o_.work_dir + "/traces");
  std::ofstream out(o_.work_dir + "/traces/" + o_.workload + ".jsonl");
  auto rel_us = [&](std::uint64_t t) {
    return t == 0 ? -1.0 : (static_cast<double>(t) - static_cast<double>(t_start_)) / 1e3;
  };
  for (const RestartSpan& s : restart_spans_) {
    out << "{\"span\":\"restart\",\"step\":\"" << s.step
        << "\",\"start_us\":" << rel_us(s.start_ns)
        << ",\"end_us\":" << rel_us(s.end_ns) << "}\n";
  }
  std::vector<std::uint64_t> commit_ns(txs_.size(), 0);
  for (const auto& [id, t] : logs_[0].txs) {
    if (id < commit_ns.size() && commit_ns[id] == 0) commit_ns[id] = t;
  }
  const std::size_t tx_stride = std::max<std::size_t>(1, txs_.size() / kMaxLines);
  for (std::size_t i = 0; i < txs_.size(); i += tx_stride) {
    const TxRec& t = txs_[i];
    out << "{\"span\":\"tx\",\"id\":" << i << ",\"node\":" << int{t.node}
        << ",\"due_us\":" << rel_us(t.due_ns)
        << ",\"submit_us\":" << rel_us(t.submit_ns)
        << ",\"submit_dur_us\":" << t.submit_dur_ns / 1e3
        << ",\"a_deliver0_us\":" << rel_us(commit_ns[i])
        << ",\"ack_us\":" << rel_us(t.ack_ns) << "}\n";
  }
  const std::size_t f_stride = std::max<std::size_t>(1, spans.size() / kMaxLines);
  for (std::size_t i = 0; i < spans.size(); i += f_stride) {
    const FrameSpan& s = spans[i];
    out << "{\"span\":\"" << (s.recv ? "recv" : "send")
        << "\",\"node\":" << int{s.node} << ",\"peer\":" << int{s.peer}
        << ",\"channel\":" << int{s.channel}
        << ",\"start_us\":" << rel_us(s.start_ns)
        << ",\"dur_us\":" << s.dur_ns / 1e3 << ",\"bytes\":" << s.bytes
        << "}\n";
  }
}

}  // namespace

bool known_workload(const std::string& name) {
  return name == "inproc-steady" || name == "ingress-tcp" ||
         name == "durable-restart";
}

RunResult run_workload(const RunOptions& opts) {
  Run run(opts);
  return run.execute();
}

}  // namespace perfbench
