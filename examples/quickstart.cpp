// Quickstart: spin up a 4-process DAG-Rider deployment on the simulated
// network, atomically broadcast a few payloads, and watch every process
// deliver them in the same total order.
//
//   $ ./build/examples/quickstart
//
// The three public pieces a user touches:
//   core::SystemConfig — committee size, reliable-broadcast flavor, coin,
//                        fault injection, delay model;
//   core::System       — owns the simulator, network, and n protocol stacks;
//   DagRider::a_bcast / the delivered() log — the BAB interface itself.
#include <cstdio>
#include <string>

#include "core/system.hpp"

int main() {
  using namespace dr;

  // 1. Configure a committee of n = 3f+1 = 4 processes, Bracha broadcast,
  //    threshold coin, and a seeded asynchronous network.
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 2021;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.coin_mode = core::CoinMode::kThreshold;
  // Processes propose synthetic blocks when the application has nothing
  // queued, so the DAG always advances ("infinitely many blocks", §3).
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 32;

  core::System sys(std::move(cfg));

  // 2. Atomically broadcast three payloads from process 0. a_bcast enqueues
  //    the block; it rides the process's next DAG vertex.
  for (const char* msg : {"pay alice 10", "pay bob 5", "mint 100"}) {
    Bytes block(msg, msg + std::string(msg).size());
    sys.node(0).rider().a_bcast(std::move(block));
  }

  // 3. Run the asynchronous network until every process delivered >= 40
  //    blocks (our three, plus the synthetic traffic around them).
  sys.start();
  if (!sys.run_until_delivered(40)) {
    std::fprintf(stderr, "simulation stalled\n");
    return 1;
  }

  // 4. Inspect the outcome: all correct processes hold the same prefix.
  std::printf("process 0 delivered %zu blocks; first 10 in order:\n",
              sys.node(0).delivered().size());
  for (std::size_t i = 0; i < 10; ++i) {
    const core::DeliveredRecord& r = sys.node(0).delivered()[i];
    std::printf("  #%zu  round %llu  from process %u  (%zu bytes)\n", i,
                static_cast<unsigned long long>(r.round), r.source,
                r.block_size);
  }
  const bool consistent = core::prefix_consistent(sys);
  std::printf("total order across processes: %s\n",
              consistent ? "consistent" : "VIOLATED");
  std::printf("committed waves at process 0: %zu, decided wave %llu\n",
              sys.node(0).commits().size(),
              static_cast<unsigned long long>(
                  sys.node(0).rider().decided_wave()));
  return consistent ? 0 : 1;
}
