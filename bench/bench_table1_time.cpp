// T1-time — Table 1, "Expected time complexity" column.
//
// Paper metric: asynchronous time units until O(n) values proposed by
// different correct processes are delivered. DAG-Rider commits an entire
// wave leader's causal history (>= 2f+1 proposers' blocks) every O(1) waves
// -> flat in n. A slot-parallel VABA/Dumbo SMR must emit n slots in order,
// and the max of n geometric per-slot latencies grows ~log n (Ben-Or &
// El-Yaniv), which the "growth" column should reproduce.
#include <cmath>
#include <functional>

#include "baselines/smr/slot_smr.hpp"
#include "bench_util.hpp"

namespace dr::bench {
namespace {

/// All rows run under the same scheduler: f processes behind a slow link.
/// Under fully benign delays every VABA slot decides in view 1 and the
/// in-order constraint never binds; with f slow proposers the coin elects
/// an unfinished leader with probability ~f/n per view, per-slot latency is
/// geometric, and emitting n slots in order pays the max of n draws —
/// the O(log n) of Ben-Or & El-Yaniv. DAG-Rider under the *same* scheduler
/// skips the occasional wave but its per-commit work is one wave regardless
/// of n, so it stays flat.
std::unique_ptr<sim::DelayModel> slow_f_delays(std::uint32_t n) {
  const Committee c = Committee::for_n(n);
  std::vector<ProcessId> slow;
  for (std::uint32_t i = 0; i < c.f; ++i) slow.push_back(n - 1 - i);
  return std::make_unique<sim::FixedSetDelay>(slow, /*fast=*/100, /*slow=*/500);
}

/// Time units for a slot SMR to emit its first n in-order outputs.
double smr_time_units_for_n_outputs(std::uint32_t n,
                                    baselines::SmrBackend backend,
                                    std::uint64_t seed) {
  baselines::SmrSystemConfig cfg;
  cfg.committee = Committee::for_n(n);
  cfg.seed = seed;
  cfg.backend = backend;
  cfg.batch_size = 32;
  cfg.delays = slow_f_delays(n);
  baselines::SmrSystem sys(std::move(cfg));
  const sim::SimTime unit = sys.network().max_delay();
  sys.start();
  if (!sys.run_until_output(n)) return -1;
  // Use the slowest correct process (system-level latency).
  sim::SimTime worst = 0;
  for (ProcessId p : sys.correct_ids()) {
    worst = std::max(worst, sys.node(p).outputs()[n - 1].time);
  }
  return static_cast<double>(worst) / static_cast<double>(unit);
}

void run() {
  print_header("T1-time",
               "expected time complexity (time units to order O(n) values "
               "from distinct correct processes)");

  std::vector<std::string> headers{"protocol", "paper"};
  for (std::uint32_t n : sweep_n()) headers.push_back("n=" + std::to_string(n));
  headers.push_back("growth n=4->16");
  metrics::Table table(std::move(headers));

  const int kSeeds = 10;

  auto sweep = [&](const std::string& name, const std::string& paper,
                   const std::function<double(std::uint32_t, std::uint64_t)>& one) {
    std::vector<std::string> cells{name, paper};
    double first = 0, last = 0;
    for (std::uint32_t n : sweep_n()) {
      metrics::Summary s;
      for (int seed = 1; seed <= kSeeds; ++seed) {
        const double v = one(n, 1000 + static_cast<std::uint64_t>(seed));
        if (v >= 0) s.add(v);
      }
      cells.push_back(metrics::Table::fmt(s.mean(), 1));
      if (n == sweep_n().front()) first = s.mean();
      if (n == sweep_n().back()) last = s.mean();
    }
    cells.push_back(metrics::Table::fmt(last / first, 2) + "x");
    table.add_row(std::move(cells));
  };

  sweep("DAG-Rider + Bracha", "O(1)", [](std::uint32_t n, std::uint64_t seed) {
    return run_dag_rider(n, rbc::RbcKind::kBracha, seed, 1, 32, 4,
                         core::CoinMode::kThreshold, slow_f_delays(n))
        .time_units_to_n_values;
  });
  sweep("DAG-Rider + AVID", "O(1)", [](std::uint32_t n, std::uint64_t seed) {
    return run_dag_rider(n, rbc::RbcKind::kAvid, seed, 1, 32, 4,
                         core::CoinMode::kThreshold, slow_f_delays(n))
        .time_units_to_n_values;
  });
  sweep("VABA SMR", "O(log n)", [](std::uint32_t n, std::uint64_t seed) {
    return smr_time_units_for_n_outputs(n, baselines::SmrBackend::kVaba, seed);
  });
  sweep("Dumbo SMR", "O(log n)", [](std::uint32_t n, std::uint64_t seed) {
    return smr_time_units_for_n_outputs(n, baselines::SmrBackend::kDumbo, seed);
  });

  emit(table);
  const double log_growth = std::log(16.0) / std::log(4.0);
  std::printf(
      "\nAll rows share one scheduler: f processes behind a slow link.\n"
      "Reading: DAG-Rider rows stay ~flat (O(1)); SMR rows grow with n —\n"
      "the in-order constraint pays the max of n geometric per-slot\n"
      "latencies (theory: >= log(n) growth ~= %.2fx from n=4 to n=16, plus\n"
      "re-proposal queueing).\n",
      log_growth);
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  dr::bench::run();
  dr::bench::bench_finish();
  return 0;
}
