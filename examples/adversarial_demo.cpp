// adversarial_demo — DAG-Rider under fire.
//
// A narrated run with every hostile element the model allows, all at once:
//   * an equivocating Byzantine process crafting conflicting vertices,
//   * an adaptive network adversary with asymmetric per-link delays,
//   * a late-healing partition.
// The demo prints what each defense does as it happens, then audits the
// BAB properties and chain quality at the end.
#include <cstdio>

#include "core/audit.hpp"
#include "core/system.hpp"

int main() {
  using namespace dr;

  std::printf("=== DAG-Rider adversarial demo (n = 7, f = 2) ===\n\n");
  std::printf("adversary setup:\n");
  std::printf("  * process 5 equivocates: every broadcast sends variant A to\n");
  std::printf("    even-numbered processes and variant B to the rest\n");
  std::printf("  * process 6 has crashed before the run\n");
  std::printf("  * links flip between fast and slow per (sender, receiver)\n\n");

  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(2);  // n = 7
  cfg.seed = 424242;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.coin_mode = core::CoinMode::kThreshold;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 24;
  cfg.delays = std::make_unique<sim::AsymmetricDelay>(7, /*period=*/250,
                                                      /*fast=*/30, /*slow=*/400);
  cfg.faults.assign(cfg.committee.n, core::FaultKind::kNone);
  cfg.faults[5] = core::FaultKind::kEquivocate;
  cfg.faults[6] = core::FaultKind::kCrash;
  core::System sys(std::move(cfg));
  sys.start();

  // Milestone narration.
  const std::uint64_t kTargets[] = {10, 40, 80};
  for (std::uint64_t target : kTargets) {
    if (!sys.run_until_delivered(target, 200'000'000)) {
      std::fprintf(stderr, "stalled before %llu deliveries\n",
                   static_cast<unsigned long long>(target));
      return 1;
    }
    auto& node = sys.node(0);
    std::printf("t=%-8llu delivered=%-4zu decided_wave=%-3llu commits=%zu\n",
                static_cast<unsigned long long>(sys.simulator().now()),
                node.delivered().size(),
                static_cast<unsigned long long>(node.rider().decided_wave()),
                node.commits().size());
  }

  // Audit.
  std::printf("\n=== audit ===\n");
  const bool total_order = core::prefix_consistent(sys);
  std::printf("total order across correct processes: %s\n",
              total_order ? "CONSISTENT" : "VIOLATED");

  // Equivocation audit: did process 5 manage to get two different blocks
  // delivered for the same round anywhere?
  bool equivocation_leak = false;
  for (ProcessId a : sys.correct_ids()) {
    for (ProcessId b : sys.correct_ids()) {
      const auto& la = sys.node(a).delivered();
      const auto& lb = sys.node(b).delivered();
      for (const auto& ra : la) {
        if (ra.source != 5) continue;
        for (const auto& rb : lb) {
          if (rb.source == 5 && rb.round == ra.round &&
              rb.block_digest != ra.block_digest) {
            equivocation_leak = true;
          }
        }
      }
    }
  }
  std::printf("equivocator split any (round, source) slot: %s\n",
              equivocation_leak ? "YES — BUG" : "no (reliable broadcast held)");

  std::uint64_t from_equivocator = 0;
  for (const auto& r : sys.node(0).delivered()) {
    from_equivocator += r.source == 5 ? 1 : 0;
  }
  std::printf("equivocator's blocks ordered anyway: %llu "
              "(one variant per round wins or none does)\n",
              static_cast<unsigned long long>(from_equivocator));
  const core::ChainQuality cq = core::audit_chain_quality(
      core::correct_logs(sys), sys.committee(), sys.correct_ids());
  std::printf("chain quality (min correct share over every (2f+1)r prefix): "
              "%.2f (bound: %.2f): %s\n",
              cq.min_share, 3.0 / 5.0,
              cq.violation ? cq.violation->c_str() : "HOLDS");

  return total_order && !equivocation_leak && !cq.violation ? 0 : 1;
}
