// One sub-run of the runtime benchmark (perfbench/run.py drives it):
//   perfbench --workload <inproc-steady|ingress-tcp|durable-restart>
//             --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
// Prints the run fingerprint, then as its last stdout line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// untraced, the per-layer metrics traced. The full record (both metric sets,
// the per-tenth series, counters with their bases, self time per stage)
// goes to <work-dir>/results/<workload>-seed<n>-trace<t>.json.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "crypto/sha256.hpp"
#include "gate.hpp"
#include "workload.hpp"

namespace {

using perfbench::Metric;
using perfbench::RunResult;

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <inproc-steady|ingress-tcp|"
               "durable-restart> --seed <n> --seconds <s> --trace <0|1> "
               "[--work-dir <dir>]\n");
  return 2;
}

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += quoted(ms[i].name) + ": {\"value\": " + num(ms[i].value) +
           ", \"unit\": " + quoted(ms[i].unit) + "}";
  }
  return out + "}";
}

std::string lines_json(const std::vector<std::string>& lines) {
  std::string out = "[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out += (i > 0 ? ", " : "") + quoted(lines[i]);
  }
  return out + "]";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  o.work_dir = ".bench_build";
  int trace = -1;
  bool have_seed = false;
  bool have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string val = argv[i + 1];
    if (flag == "--workload") {
      o.workload = val;
    } else if (flag == "--seed") {
      o.seed = std::strtoull(val.c_str(), nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(val.c_str(), nullptr);
      have_seconds = true;
    } else if (flag == "--trace") {
      trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    } else if (flag == "--work-dir") {
      o.work_dir = val;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0 || !perfbench::known_workload(o.workload) || !have_seed ||
      !have_seconds || o.seconds <= 0 || trace < 0) {
    return usage();
  }
  o.trace = trace == 1;

  // Fingerprint: keeps runs from different builds or SHA backends apart.
  const char* scalar_env = std::getenv("DAGRIDER_SHA256_SCALAR");
  std::ostringstream fp;
  fp << "build=" << PERFBENCH_BUILD_TYPE
     << " sha256=" << dr::crypto::sha256_backend()
     << " DAGRIDER_SHA256_SCALAR=" << (scalar_env ? scalar_env : "unset")
     << " nproc=" << std::thread::hardware_concurrency()
     << " seed=" << o.seed;
  std::printf("perfbench workload=%s seconds=%g trace=%d\n",
              o.workload.c_str(), o.seconds, trace);
  std::printf("fingerprint: %s\n", fp.str().c_str());

  if (auto bad = perfbench::gate_self_test()) {
    std::fprintf(stderr, "perfbench: correctness gate self-test failed: %s\n",
                 bad->c_str());
    return 1;
  }

  const RunResult r = perfbench::run_workload(o);
  if (!r.correct) {
    std::fprintf(stderr, "perfbench: run failed: %s\n", r.violation.c_str());
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed));
    return 1;
  }

  const std::vector<Metric>& reported = o.trace ? r.per_layer : r.end_to_end;
  std::string tenths = "[";
  for (std::size_t k = 0; k < r.tenths.size(); ++k) {
    tenths += (k > 0 ? ", " : "") + std::string("{\"blocks_per_s\": ") +
              num(r.tenths[k].blocks_per_s) +
              ", \"commit_p50_ms\": " + num(r.tenths[k].commit_p50_ms) + "}";
  }
  tenths += "]";
  namespace fs = std::filesystem;
  fs::create_directories(o.work_dir + "/results");
  std::ofstream(o.work_dir + "/results/" + o.workload + "-seed" +
                std::to_string(o.seed) + "-trace" + std::to_string(trace) +
                ".json")
      << "{\"workload\": " << quoted(o.workload)
      << ", \"fingerprint\": " << quoted(fp.str())
      << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
      << ", \"end_to_end\": " << metrics_json(r.end_to_end)
      << ", \"per_layer\": " << metrics_json(r.per_layer)
      << ", \"not_exercised\": " << lines_json(r.not_exercised)
      << ", \"tenths\": " << tenths
      << ", \"counters\": " << lines_json(r.counter_lines)
      << ", \"self_time\": " << lines_json(r.self_time_lines) << "}\n";

  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              metrics_json(reported).c_str());
  return 0;
}
