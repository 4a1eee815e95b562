// The three n=4 workloads of the runtime benchmark (README.md): one open-loop
// generator thread drives a node::Cluster for a fixed window, then the run
// drains, stops the cluster, gates correctness and derives the metrics.
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace perfbench {

struct RunOptions {
  std::string workload;  ///< inproc-steady | ingress-tcp | durable-restart
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  ///< WALs and trace files go here
};

bool known_workload(const std::string& name);

RunResult run_workload(const RunOptions& opts);

}  // namespace perfbench
