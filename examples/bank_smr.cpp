// bank_smr — Byzantine fault-tolerant state machine replication on DAG-Rider.
//
// The paper (§3) positions BAB as the sequencing layer of an SMR: order
// first, execute after. This example builds exactly that separation: a tiny
// bank whose *only* connection to consensus is "apply the delivered blocks
// in delivered order".
//
// Four replicas each run a DAG-Rider stack; clients submit signed-ish
// transfer commands to *different* replicas; one replica crashes mid-run.
// At the end, every live replica holds byte-identical account balances —
// including for transfers submitted to the crashed replica before it died.
#include <cstdio>
#include <map>
#include <string>

#include "core/system.hpp"

namespace {

using namespace dr;

/// A transfer command. Execution validates it (sufficient funds), which is
/// the "execution engine validates transactions" role from §3 — consensus
/// itself never inspects block contents.
struct Transfer {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::int64_t amount = 0;

  Bytes encode() const {
    ByteWriter w(20);
    w.u32(0xBA2B);  // command tag
    w.u32(from);
    w.u32(to);
    w.u64(static_cast<std::uint64_t>(amount));
    return std::move(w).take();
  }
  static bool decode(BytesView b, Transfer& out) {
    ByteReader in(b);
    if (in.u32() != 0xBA2B) return false;
    out.from = in.u32();
    out.to = in.u32();
    out.amount = static_cast<std::int64_t>(in.u64());
    return in.done();
  }
};

/// Deterministic state machine: account -> balance.
class Bank {
 public:
  Bank() {
    for (std::uint32_t acc = 0; acc < 4; ++acc) balances_[acc] = 100;
  }

  /// Applies one delivered block. Invalid or non-bank blocks are no-ops —
  /// the ordering layer delivers *everything*, execution filters.
  void apply(BytesView block) {
    Transfer t;
    if (!Transfer::decode(block, t)) return;
    if (t.amount <= 0 || balances_[t.from] < t.amount) return;  // rejected
    balances_[t.from] -= t.amount;
    balances_[t.to] += t.amount;
    ++applied_;
  }

  std::string render() const {
    std::string out;
    for (const auto& [acc, bal] : balances_) {
      out += "acct" + std::to_string(acc) + "=" + std::to_string(bal) + " ";
    }
    return out;
  }
  bool operator==(const Bank& o) const { return balances_ == o.balances_; }
  std::uint64_t applied() const { return applied_; }

 private:
  std::map<std::uint32_t, std::int64_t> balances_;
  std::uint64_t applied_ = 0;
};

}  // namespace

int main() {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 99;
  cfg.rbc_kind = rbc::RbcKind::kAvid;  // erasure-coded broadcast
  cfg.builder.auto_blocks = true;      // pad rounds with empty blocks
  cfg.builder.auto_block_size = 0;
  core::System sys(std::move(cfg));

  // One bank replica per process, fed by the a_deliver stream through the
  // application hook, so the harness still logs delivery records.
  std::vector<Bank> banks(4);
  for (ProcessId p = 0; p < 4; ++p) {
    sys.node(p).set_app_deliver(
        [&banks, p](const Bytes& block, Round, ProcessId) {
          banks[p].apply(block);
        });
  }

  // Clients: transfers submitted to different replicas, interleaved.
  sys.node(0).rider().a_bcast(Transfer{0, 1, 30}.encode());
  sys.node(1).rider().a_bcast(Transfer{1, 2, 50}.encode());
  sys.node(2).rider().a_bcast(Transfer{2, 3, 70}.encode());
  sys.node(3).rider().a_bcast(Transfer{3, 0, 10}.encode());  // dies below
  sys.node(0).rider().a_bcast(Transfer{0, 3, 500}.encode());  // overdraft: rejected
  sys.node(1).rider().a_bcast(Transfer{1, 0, 25}.encode());

  sys.start();

  // Let the transfers propagate, then crash replica 3 mid-run. Its already-
  // broadcast transfer must STILL be ordered everywhere (validity).
  sys.simulator().run_until(
      [&] { return banks[0].applied() >= 2; }, 10'000'000);
  std::printf("crashing replica 3 at t=%llu...\n",
              static_cast<unsigned long long>(sys.simulator().now()));
  sys.network().crash(3);

  if (!sys.simulator().run_until(
          [&] {
            for (ProcessId p = 0; p < 3; ++p) {
              if (banks[p].applied() < 5) return false;
            }
            return true;
          },
          50'000'000)) {
    std::fprintf(stderr, "stalled before all transfers applied\n");
    return 1;
  }

  std::printf("\nfinal replicated state (replicas 0-2 live, 3 crashed):\n");
  for (ProcessId p = 0; p < 3; ++p) {
    std::printf("  replica %u: %s(%llu transfers applied)\n", p,
                banks[p].render().c_str(),
                static_cast<unsigned long long>(banks[p].applied()));
  }
  const bool consistent = banks[0] == banks[1] && banks[1] == banks[2];
  std::printf("\nreplica state machines agree: %s\n",
              consistent ? "YES" : "NO — BUG");
  std::printf("overdraft transfer was ordered but rejected at execution, as\n"
              "the paper's order-then-execute separation prescribes.\n");
  // The bank agreeing is not enough: the delivered logs must be prefixes of
  // one another too.
  return consistent && core::prefix_consistent(sys) ? 0 : 1;
}
