#include "ingress/loadgen.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <unordered_map>

#include "common/rng.hpp"
#include "ingress/client.hpp"

namespace dr::ingress {

namespace {

std::uint64_t mono_us() {
  const auto d = std::chrono::steady_clock::now().time_since_epoch();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(d).count());
}

/// Arrivals shed per iteration cap: under overload the open loop drops time
/// debt instead of building an unbounded backlog.
constexpr std::size_t kMaxArrivalsPerTick = 16'384;
constexpr std::size_t kPayloadBytes = 32;
/// Zipf exponent of the client popularity distribution.
constexpr double kZipfS = 1.0;
/// Max txs of one client coalesced into a single SubmitBatch.
constexpr std::size_t kBatchMax = 64;

}  // namespace

Bytes loadgen_payload(std::uint64_t client_id, std::uint64_t tx_id,
                      std::size_t bytes) {
  const std::size_t size = std::max<std::size_t>(16, bytes);
  ByteWriter w(size);
  w.u64(client_id);
  w.u64(tx_id);
  SplitMix64 fill(client_id ^ (tx_id * 0x9e3779b97f4a7c15ULL));
  std::size_t remaining = size - 16;
  while (remaining >= 8) {
    w.u64(fill.next());
    remaining -= 8;
  }
  std::uint64_t last = fill.next();
  while (remaining > 0) {
    w.u8(static_cast<std::uint8_t>(last & 0xff));
    last >>= 8;
    --remaining;
  }
  return std::move(w).take();
}

/// All run state, confined to the driver thread.
struct LoadGen::Driver {
  explicit Driver(LoadGen& owner)
      : gen(owner), opts(owner.opts_), rng(owner.opts_.seed) {}

  LoadGen& gen;
  const LoadGenOptions& opts;
  Xoshiro256 rng;
  LoadGenReport report;

  std::vector<std::unique_ptr<Client>> conns;
  std::vector<std::uint64_t> reconnect_after_us;  ///< backoff per conn
  /// Zipf CDF over the client population, sampled by binary search.
  std::vector<double> zipf_cdf;
  std::vector<std::uint32_t> next_tx;  ///< per-client tx_id counter
  /// key = (client_id << 32) | tx_id -> submit time (us, loadgen clock).
  std::unordered_map<std::uint64_t, std::uint64_t> outstanding;
  /// Per-connection, per-client coalescing buffers, flushed every tick.
  std::vector<std::unordered_map<std::uint64_t, std::vector<TxSubmit>>>
      pending;

  static std::uint64_t key_of(std::uint64_t client_id, std::uint64_t tx_id) {
    return (client_id << 32) | (tx_id & 0xffffffffull);
  }

  std::size_t conn_of(std::uint64_t client_id) const {
    return static_cast<std::size_t>(client_id % opts.connections);
  }

  void build_zipf() {
    zipf_cdf.resize(opts.clients);
    double total = 0.0;
    for (std::uint64_t i = 0; i < opts.clients; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
      zipf_cdf[i] = total;
    }
  }

  std::uint64_t sample_client() {
    const double u = rng.uniform() * zipf_cdf.back();
    const auto it = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u);
    return static_cast<std::uint64_t>(it - zipf_cdf.begin());
  }

  Client::Options conn_options(std::size_t i) const {
    const LoadGenTarget& t = opts.targets[i % opts.targets.size()];
    return Client::Options{t.host, t.port};
  }

  void wire_callbacks(Client& c) {
    c.on_reply = [this](std::uint64_t client_id, std::uint64_t tx_id,
                        SubmitStatus status) {
      // An accepted tx stays outstanding until its ack; on a duplicate the
      // first submission still owns the eventual ack. Any other verdict
      // means no ack will come.
      if (status == SubmitStatus::kAccepted ||
          status == SubmitStatus::kDuplicatePending) {
        return;
      }
      outstanding.erase(key_of(client_id, tx_id));
    };
    c.on_ack = [this](std::uint64_t client_id, std::uint64_t tx_id,
                      std::uint64_t /*server_latency_us*/) {
      const auto it = outstanding.find(key_of(client_id, tx_id));
      if (it == outstanding.end()) return;  // late ack after give-up
      const std::uint64_t now = mono_us();
      const std::uint64_t us = now > it->second ? now - it->second : 0;
      report.ack_latency_ms.add(static_cast<double>(us) / 1000.0);
      outstanding.erase(it);
      ++report.acked;
    };
  }

  bool connect_conn(std::size_t i) {
    conns[i] = std::make_unique<Client>(conn_options(i));
    wire_callbacks(*conns[i]);
    if (conns[i]->connect(opts.connect_timeout_ms)) return true;
    conns[i].reset();
    return false;
  }

  void enqueue_tx(std::uint64_t client_id, std::uint64_t tx_id,
                  std::uint64_t submit_us, bool resubmit) {
    const std::size_t conn = conn_of(client_id);
    if (conns[conn] == nullptr || !conns[conn]->connected()) {
      if (!resubmit) outstanding.erase(key_of(client_id, tx_id));
      return;
    }
    pending[conn][client_id].push_back(
        TxSubmit{tx_id, loadgen_payload(client_id, tx_id, kPayloadBytes)});
    if (!resubmit) {
      outstanding.emplace(key_of(client_id, tx_id), submit_us);
      ++report.submitted;
    } else {
      ++report.resubmitted;
    }
  }

  void flush_pending() {
    for (std::size_t conn = 0; conn < conns.size(); ++conn) {
      auto& per_client = pending[conn];
      if (per_client.empty()) continue;
      Client* c = conns[conn].get();
      for (auto& [client_id, txs] : per_client) {
        for (std::size_t base = 0; base < txs.size();
             base += kBatchMax) {
          SubmitBatch batch;
          batch.client_id = client_id;
          const std::size_t end =
              std::min(txs.size(), base + kBatchMax);
          batch.txs.assign(
              std::make_move_iterator(txs.begin() +
                                      static_cast<std::ptrdiff_t>(base)),
              std::make_move_iterator(txs.begin() +
                                      static_cast<std::ptrdiff_t>(end)));
          if (c == nullptr || !c->submit_batch(batch)) {
            // Conn gone or its out-queue is full: shed the chunk.
            for (const TxSubmit& tx : batch.txs) {
              outstanding.erase(key_of(client_id, tx.tx_id));
            }
          }
        }
      }
      per_client.clear();
    }
  }

  void churn_one(std::uint64_t now) {
    const std::size_t conn = static_cast<std::size_t>(
        rng.below(static_cast<std::uint64_t>(opts.connections)));
    ++report.churn_events;
    if (conns[conn] != nullptr) conns[conn]->close();
    conns[conn].reset();
    if (!connect_conn(conn)) {
      reconnect_after_us[conn] = now + 100'000;
      return;
    }
    resubmit_outstanding(conn);
  }

  /// After a reconnect, replay every un-acked tx whose client lives on this
  /// connection; payloads regenerate byte-identically so the server dedups
  /// or re-homes rather than double-admitting.
  void resubmit_outstanding(std::size_t conn) {
    for (const auto& [key, submit_us] : outstanding) {
      const std::uint64_t client_id = key >> 32;
      if (conn_of(client_id) != conn) continue;
      const std::uint64_t tx_id = key & 0xffffffffull;
      enqueue_tx(client_id, tx_id, submit_us, /*resubmit=*/true);
    }
  }

  void pump_conns() {
    for (auto& c : conns) {
      if (c != nullptr) c->process(0);
    }
  }

  void poll_wait(int timeout_ms) {
    std::vector<pollfd> pfds;
    for (const auto& c : conns) {
      if (c == nullptr || c->fd() < 0) continue;
      const auto events = static_cast<short>(
          c->has_backlog() ? (POLLIN | POLLOUT) : POLLIN);
      pfds.push_back(pollfd{c->fd(), events, 0});
    }
    if (pfds.empty()) return;
    sock::poll_fds(pfds.data(), pfds.size(), timeout_ms);
  }

  void run() {
    if (opts.targets.empty() || opts.connections == 0 ||
        opts.clients == 0 || opts.rate_tps <= 0.0) {
      report.error = "invalid loadgen options";
      return;
    }
    build_zipf();
    next_tx.assign(opts.clients, 0);
    conns.resize(opts.connections);
    reconnect_after_us.assign(opts.connections, 0);
    pending.resize(opts.connections);
    std::size_t live = 0;
    for (std::size_t i = 0; i < opts.connections; ++i) {
      if (connect_conn(i)) {
        ++live;
      } else {
        reconnect_after_us[i] = mono_us() + 100'000;
      }
    }
    if (live == 0) {
      report.error = "no ingress connection could be established";
      return;
    }
    const std::uint64_t start = mono_us();
    const double us_per_tx = 1e6 / opts.rate_tps;
    double next_arrival = static_cast<double>(start);
    std::uint64_t next_churn =
        opts.churn_period_ms == 0 ? 0 : start + opts.churn_period_ms * 1000;
    while (!gen.stop_.load(std::memory_order_acquire)) {
      const std::uint64_t now = mono_us();
      // Open-loop Poisson arrivals (exponential gaps, rate * population).
      std::size_t burst = 0;
      while (next_arrival <= static_cast<double>(now)) {
        if (burst++ >= kMaxArrivalsPerTick) {
          next_arrival = static_cast<double>(now);
          break;
        }
        const std::uint64_t client_id = sample_client();
        const std::uint64_t tx_id = next_tx[client_id]++;
        enqueue_tx(client_id, tx_id, now, /*resubmit=*/false);
        const double u = std::max(rng.uniform(), 1e-12);
        next_arrival += -std::log(u) * us_per_tx;
      }
      flush_pending();
      if (next_churn != 0 && now >= next_churn) {
        churn_one(now);
        next_churn = now + opts.churn_period_ms * 1000;
      }
      // Lazy redial of dead connections (initial failures / failed churn).
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if (conns[i] == nullptr && reconnect_after_us[i] != 0 &&
            now >= reconnect_after_us[i]) {
          if (connect_conn(i)) {
            reconnect_after_us[i] = 0;
            resubmit_outstanding(i);
          } else {
            reconnect_after_us[i] = now + 100'000;
          }
        }
      }
      poll_wait(1);
      pump_conns();
    }
    // Drain window: stop submitting, keep collecting acks.
    const std::uint64_t drain_end = mono_us() + opts.drain_ms * 1000;
    while (!outstanding.empty() && mono_us() < drain_end) {
      poll_wait(5);
      pump_conns();
    }
    report.ok = true;
    for (auto& c : conns) {
      if (c != nullptr) c->close();
    }
  }
};

LoadGen::LoadGen(LoadGenOptions opts) : opts_(std::move(opts)) {}

LoadGen::~LoadGen() { (void)stop_and_report(); }

bool LoadGen::start() {
  if (started_) return false;
  started_ = true;
  thread_ = std::thread([this] {
    Driver driver(*this);
    driver.run();
    report_ = std::move(driver.report);
  });
  return true;
}

LoadGenReport LoadGen::stop_and_report() {
  stop_.store(true, std::memory_order_release);
  if (thread_.joinable()) thread_.join();
  return report_;
}

}  // namespace dr::ingress
