// Shared measurement helpers for the table/figure reproduction benches.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "core/system.hpp"
#include "metrics/stats.hpp"
#include "metrics/table.hpp"
#include "sim/network.hpp"

namespace dr::bench {

/// Committee sizes swept by the scaling experiments.
inline const std::vector<std::uint32_t> kSweepN = {4, 7, 10, 13, 16};

/// Command line shared by every bench binary:
///   --json <path>   additionally write every emitted table as one JSON doc
///   --smoke         cut sweeps/workloads down to a CI-sized smoke run
/// Any other argument prints the usage and exits 2.
struct BenchArgs {
  std::string json_path;
  bool smoke = false;
};

inline BenchArgs parse_bench_args(int argc, char** argv) {
  BenchArgs out;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      out.json_path = argv[++i];
    } else if (a == "--smoke") {
      out.smoke = true;
    } else {
      std::fprintf(stderr,
                   "unknown arg: %s\nusage: %s [--smoke] [--json <path>]\n",
                   argv[i], argv[0]);
      std::exit(2);
    }
  }
  return out;
}

/// Process-wide bench I/O: collects every table emitted under the section id
/// of the preceding print_header, and flushes them as JSON when --json was
/// given. Console rendering is unchanged — the JSON sink rides along.
class BenchIo {
 public:
  static BenchIo& instance() {
    static BenchIo io;
    return io;
  }

  void init(int argc, char** argv) { args_ = parse_bench_args(argc, argv); }
  bool smoke() const { return args_.smoke; }
  void section(std::string id) { section_ = std::move(id); }

  void emit(const metrics::Table& t) {
    t.print();
    tables_.emplace_back(section_.empty() ? "table" : section_, t);
  }

  /// False when --json was requested but the file could not be written, so
  /// CI fails instead of silently missing its artifact.
  bool flush() const {
    if (args_.json_path.empty()) return true;
    std::ofstream out(args_.json_path);
    if (!out) {
      std::fprintf(stderr, "bench: cannot write %s\n", args_.json_path.c_str());
      return false;
    }
    auto esc = [](const std::string& s) {
      std::string r;
      for (char c : s) {
        if (c == '"' || c == '\\') r += '\\';
        r += c;
      }
      return r;
    };
    out << "{\n  \"smoke\": " << (args_.smoke ? "true" : "false")
        << ",\n  \"tables\": [\n";
    for (std::size_t t = 0; t < tables_.size(); ++t) {
      const auto& [id, table] = tables_[t];
      out << "    {\"id\": \"" << esc(id) << "\", \"headers\": [";
      for (std::size_t i = 0; i < table.headers().size(); ++i) {
        out << (i ? ", " : "") << '"' << esc(table.headers()[i]) << '"';
      }
      out << "], \"rows\": [";
      for (std::size_t r = 0; r < table.rows().size(); ++r) {
        out << (r ? ", " : "") << '[';
        for (std::size_t c = 0; c < table.rows()[r].size(); ++c) {
          out << (c ? ", " : "") << '"' << esc(table.rows()[r][c]) << '"';
        }
        out << ']';
      }
      out << "]}" << (t + 1 < tables_.size() ? "," : "") << '\n';
    }
    out << "  ]\n}\n";
    std::fprintf(stderr, "bench: wrote JSON to %s\n", args_.json_path.c_str());
    return out.good();
  }

 private:
  BenchArgs args_;
  std::string section_;
  std::vector<std::pair<std::string, metrics::Table>> tables_;
};

inline void bench_init(int argc, char** argv) {
  BenchIo::instance().init(argc, argv);
}
inline void bench_finish() {
  if (!BenchIo::instance().flush()) std::exit(1);
}
inline bool smoke() { return BenchIo::instance().smoke(); }
inline void emit(const metrics::Table& t) { BenchIo::instance().emit(t); }

/// kSweepN, trimmed in smoke mode.
inline std::vector<std::uint32_t> sweep_n() {
  return smoke() ? std::vector<std::uint32_t>{4, 7} : kSweepN;
}

struct DagRiderRun {
  double bytes_per_value = 0;      ///< honest bytes / ordered value
  double time_units_per_commit = 0;
  double time_units_to_n_values = 0;  ///< paper's time-complexity metric
  std::uint64_t values_ordered = 0;
  std::uint64_t commits = 0;
  double waves_per_commit = 0;
  bool ok = false;
};

/// Runs DAG-Rider at committee size n with `values_per_block` batched values
/// of `value_size` bytes each, until `target_commits` leader commits land at
/// every correct process. Communication is measured after a warmup of one
/// committed wave so setup costs do not pollute the amortized figures.
inline DagRiderRun run_dag_rider(std::uint32_t n, rbc::RbcKind kind,
                                 std::uint64_t seed,
                                 std::uint32_t values_per_block,
                                 std::size_t value_size,
                                 std::uint64_t target_commits = 6,
                                 core::CoinMode coin = core::CoinMode::kThreshold,
                                 std::unique_ptr<sim::DelayModel> delays = nullptr) {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_n(n);
  cfg.seed = seed;
  cfg.rbc_kind = kind;
  cfg.coin_mode = coin;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size =
      static_cast<std::size_t>(values_per_block) * value_size;
  if (delays) cfg.delays = std::move(delays);
  core::System sys(std::move(cfg));
  sys.start();

  DagRiderRun out;
  const sim::SimTime unit = sys.network().max_delay();

  // Warmup: first commit everywhere, then reset the traffic counters.
  auto commits_everywhere = [&](std::uint64_t k) {
    return [&sys, k] {
      for (ProcessId p : sys.correct_ids()) {
        if (sys.node(p).commits().size() < k) return false;
      }
      return true;
    };
  };
  if (!sys.simulator().run_until(commits_everywhere(1), 80'000'000)) return out;
  sys.network().reset_traffic();
  const std::uint64_t delivered_at_warmup =
      sys.node(sys.correct_ids()[0]).delivered().size();
  const sim::SimTime t0 = sys.simulator().now();

  if (!sys.simulator().run_until(commits_everywhere(1 + target_commits),
                                 400'000'000)) {
    return out;
  }
  const sim::SimTime t1 = sys.simulator().now();
  const ProcessId probe = sys.correct_ids()[0];
  const core::Node& node = sys.node(probe);

  const std::uint64_t blocks = node.delivered().size() - delivered_at_warmup;
  out.values_ordered = blocks * values_per_block;
  out.commits = target_commits;
  out.bytes_per_value =
      static_cast<double>(sys.network().total_honest_bytes_sent()) /
      static_cast<double>(out.values_ordered ? out.values_ordered : 1);
  out.time_units_per_commit = static_cast<double>(t1 - t0) /
                              static_cast<double>(target_commits) /
                              static_cast<double>(unit);
  // Paper metric: time units until O(n) values from different correct
  // processes are delivered, measured from the warmup point.
  {
    std::set<ProcessId> sources;
    sim::SimTime t_n = t1;
    for (std::size_t i = delivered_at_warmup; i < node.delivered().size(); ++i) {
      sources.insert(node.delivered()[i].source);
      if (sources.size() >= sys.committee().quorum()) {
        t_n = node.delivered()[i].time;
        break;
      }
    }
    out.time_units_to_n_values =
        static_cast<double>(t_n - t0) / static_cast<double>(unit);
  }
  const std::size_t commits = node.commits().size();
  out.waves_per_commit =
      static_cast<double>(sys.node(probe).rider().waves_evaluated()) /
      static_cast<double>(commits ? commits : 1);
  out.ok = true;
  return out;
}

inline void print_header(const char* id, const char* title) {
  BenchIo::instance().section(id);
  std::printf("\n=== %s — %s ===\n", id, title);
}

}  // namespace dr::bench
