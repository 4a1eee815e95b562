// Chaos soak runner: sweeps seeded randomized fault schedules over live
// clusters (n = 4 / 7 / 10) and fails loudly — with the exact seed and the
// full fault plan — on the first BAB invariant violation, so any failure
// replays bit-identically with `chaos_soak --seed <printed seed>`.
//
// Usage:
//   chaos_soak                     # default sweep (20 seeds across 4/7/10)
//   chaos_soak --smoke             # CI-sized sweep (short, n=4 heavy)
//   chaos_soak --seed 17 [--n 7]   # replay exactly one seeded run
//   chaos_soak --seeds 40          # wider sweep
//   chaos_soak --wal <dir>         # enable durability + crash-churn soaks
//   chaos_soak --ingress           # client traffic through the TCP ingress
//                                  # tier (with churning clients) every run
//   chaos_soak --ordering bullshark  # run every soak under the Bullshark
//                                    # ordering personality (default dagrider)
//
// Exit status: 0 when every run progressed and passed the auditors; 1 on
// the first violation or stall.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "core/ordering.hpp"
#include "node/soak.hpp"

namespace {

struct Args {
  std::uint64_t seeds = 20;      // sweep width
  std::uint64_t seed = 0;        // != 0: replay exactly this seed
  std::uint32_t n = 0;           // != 0: restrict the sweep to one size
  std::string wal_dir;
  bool smoke = false;
  bool ingress = false;
  dr::core::OrderingKind ordering = dr::core::OrderingKind::kDagRider;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--seeds") && i + 1 < argc) {
      a.seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (!std::strcmp(argv[i], "--n") && i + 1 < argc) {
      a.n = static_cast<std::uint32_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (!std::strcmp(argv[i], "--wal") && i + 1 < argc) {
      a.wal_dir = argv[++i];
    } else if (!std::strcmp(argv[i], "--smoke")) {
      a.smoke = true;
    } else if (!std::strcmp(argv[i], "--ingress")) {
      a.ingress = true;
    } else if (!std::strcmp(argv[i], "--ordering") && i + 1 < argc) {
      const auto kind = dr::core::parse_ordering(argv[++i]);
      if (!kind.has_value()) {
        std::fprintf(stderr, "unknown ordering: %s (dagrider|bullshark)\n",
                     argv[i]);
        std::exit(2);
      }
      a.ordering = *kind;
    } else {
      std::fprintf(stderr, "unknown arg: %s\n", argv[i]);
      std::exit(2);
    }
  }
  return a;
}

std::string fresh_wal(const std::string& base, std::uint64_t seed,
                      std::uint32_t n) {
  if (base.empty()) return "";
  const std::string dir =
      base + "/soak-s" + std::to_string(seed) + "-n" + std::to_string(n);
  std::filesystem::remove_all(dir);
  return dir;
}

/// Runs one seeded soak; returns false (after printing the replay recipe)
/// on violation or stall.
bool run_one(const Args& args, std::uint64_t seed, std::uint32_t n) {
  dr::node::SoakOptions opts;
  opts.seed = seed;
  opts.n = n;
  opts.ordering = args.ordering;
  opts.target_delivered = args.smoke ? 20 : 40;
  opts.timeout = std::chrono::minutes(3);
  opts.wal_dir = fresh_wal(args.wal_dir, seed, n);
  // Rotate the soak flavour by seed so one sweep covers plain chaos, churn
  // (when durable), and every live Byzantine profile.
  if (!opts.wal_dir.empty() && seed % 3 == 1) opts.with_churn = true;
  switch (seed % 4) {
    case 1: opts.byzantine = dr::core::ByzantineProfile::kEquivocate; break;
    case 2: opts.byzantine = dr::core::ByzantineProfile::kMute; break;
    case 3: opts.byzantine = dr::core::ByzantineProfile::kSelective; break;
    default: break;  // seed % 4 == 0: all honest
  }
  // A Byzantine node and churn at once would leave only f honest-and-up
  // nodes short of quorum windows; keep the two flavours separate.
  if (opts.with_churn) opts.byzantine = dr::core::ByzantineProfile::kHonest;
  if (args.ingress) {
    opts.with_ingress = true;
    opts.ingress_clients = args.smoke ? 500 : 2'000;
    opts.ingress_rate_tps = args.smoke ? 500.0 : 2'000.0;
  }

  const dr::node::SoakResult r = dr::node::run_chaos_soak(opts);
  if (r.ok) {
    std::printf("ok   seed=%llu n=%u ordering=%s byz=%s churn=%s faults=%s\n",
                static_cast<unsigned long long>(seed), n,
                dr::core::to_string(opts.ordering), to_string(opts.byzantine),
                opts.with_churn ? "yes" : "no",
                r.plan.c_str());
    if (opts.with_ingress) {
      std::printf(
          "     ingress: submitted=%llu acked=%llu resubmitted=%llu "
          "client_churn=%llu ack_p50=%.1fms ack_p99=%.1fms\n",
          static_cast<unsigned long long>(r.ingress_submitted),
          static_cast<unsigned long long>(r.ingress_acked),
          static_cast<unsigned long long>(r.ingress_resubmitted),
          static_cast<unsigned long long>(r.ingress_churn_events),
          r.ingress_ack_p50_ms, r.ingress_ack_p99_ms);
    }
    return true;
  }
  std::fprintf(stderr, "FAIL %s\n", r.describe().c_str());
  std::fprintf(stderr,
               "     %s — replay with: chaos_soak --seed %llu --n %u%s\n",
               r.progressed ? "invariant violation" : "no progress (stall)",
               static_cast<unsigned long long>(seed), n,
               args.wal_dir.empty() ? "" : " --wal <dir>");
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  if (args.seed != 0) {  // single-run replay mode
    return run_one(args, args.seed, args.n != 0 ? args.n : 4) ? 0 : 1;
  }

  const std::vector<std::uint32_t> sizes =
      args.n != 0 ? std::vector<std::uint32_t>{args.n}
      : args.smoke ? std::vector<std::uint32_t>{4, 4, 4, 7}
                   : std::vector<std::uint32_t>{4, 7, 10};
  const std::uint64_t seeds = args.smoke ? 6 : args.seeds;

  std::uint64_t runs = 0;
  for (std::uint64_t seed = 1; seed <= seeds; ++seed) {
    // Spread committee sizes across the sweep instead of multiplying it.
    const std::uint32_t n = sizes[seed % sizes.size()];
    if (!run_one(args, seed, n)) return 1;
    ++runs;
  }
  std::printf("chaos soak: %llu seeded runs, zero violations\n",
              static_cast<unsigned long long>(runs));
  return 0;
}
