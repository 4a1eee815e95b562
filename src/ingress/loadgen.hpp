// Open-loop client load generator (DESIGN.md §13), the chaos soak's client
// engine. Simulates a large population of logical clients multiplexed over
// a bounded set of real TCP connections: arrivals follow an aggregate
// Poisson process at a configured rate, the submitting client is drawn from
// a Zipf distribution (s = 1: a few hot clients, a long cold tail), and an
// optional churn schedule closes and reopens connections mid-run,
// resubmitting the un-acked transactions of the affected clients — the
// reconnect path the mempool's origin re-homing exists for.
//
// Everything is seeded and deterministic on the loadgen side: a resubmitted
// tx regenerates byte-identical payload from (client_id, tx_id), so it maps
// to the same digest at every node.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.hpp"
#include "metrics/stats.hpp"

namespace dr::ingress {

/// Deterministic payload for (client_id, tx_id): 16 bytes of ids followed by
/// SplitMix64 filler. Regenerable, so churned clients resubmit exactly the
/// bytes they first sent. Always at least 16 bytes.
Bytes loadgen_payload(std::uint64_t client_id, std::uint64_t tx_id,
                      std::size_t bytes);

struct LoadGenTarget {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
};

struct LoadGenOptions {
  /// Logical client population (each with its own id space and Zipf weight).
  std::uint64_t clients = 10'000;
  /// Real TCP connections the population is multiplexed over.
  std::size_t connections = 64;
  /// Ingress endpoints; connection i targets targets[i % targets.size()].
  std::vector<LoadGenTarget> targets;
  /// Aggregate open-loop arrival rate across the whole population.
  double rate_tps = 10'000.0;
  /// Every churn_period_ms one connection is torn down and redialed, and
  /// the outstanding txs of its clients are resubmitted. 0 = no churn.
  std::uint64_t churn_period_ms = 0;
  std::uint64_t seed = 1;
  int connect_timeout_ms = 2'000;
  /// After stop_and_report(), keep pumping acks for up to this long.
  std::uint64_t drain_ms = 2'000;
};

struct LoadGenReport {
  std::uint64_t submitted = 0;  ///< txs handed to a connection
  std::uint64_t acked = 0;
  std::uint64_t resubmitted = 0;
  std::uint64_t churn_events = 0;
  /// Client-observed submit -> commit-ack latency.
  metrics::Summary ack_latency_ms;
  bool ok = false;
  std::string error;
};

class LoadGen {
 public:
  explicit LoadGen(LoadGenOptions opts);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Spawns the driver thread. One LoadGen = one run.
  bool start();
  /// Stops submitting, drains acks for up to drain_ms, joins the driver and
  /// returns the final report.
  LoadGenReport stop_and_report();

 private:
  struct Driver;

  LoadGenOptions opts_;
  std::thread thread_;
  std::atomic<bool> stop_{false};
  bool started_ = false;
  LoadGenReport report_;
};

}  // namespace dr::ingress
