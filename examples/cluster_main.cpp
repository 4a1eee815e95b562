// cluster_main — run a live DAG-Rider cluster on the real-concurrency
// runtime (src/node/). Three modes:
//
//   --mode inproc   (default) n nodes as OS threads in this process,
//                   shared-memory transport; submits the --txs workload
//   --mode tcp      the same node::Cluster and workload over loopback TCP
//                   links (the full wire path: framing, handshakes,
//                   reader/writer threads)
//   --mode tcp2     forks into TWO OS processes, each hosting half of the
//                   nodes, connected over loopback TCP. The halves verify
//                   agreement for real: the child streams the digest chain
//                   of its ordered prefix through a pipe and the parent
//                   compares it against its own.
//
// Common flags: --n <4> --seed <1> --txs <2000> --blocks <160>
//
// Every process derives the threshold-coin trusted setup from --seed alone
// (coin::kDealerSeedTweak), which is how independent OS processes agree on
// the dealer without exchanging keys — the demo analogue of distributing
// key shares at setup time.
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/audit.hpp"
#include "crypto/sha256.hpp"
#include "net/tcp.hpp"
#include "node/cluster.hpp"
#include "txpool/transaction.hpp"

namespace {

using namespace dr;

struct Args {
  std::string mode = "inproc";
  std::uint32_t n = 4;
  std::uint64_t seed = 1;
  std::uint64_t txs = 2'000;
  std::uint64_t blocks = 160;  ///< delivered blocks to wait for per node
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    if (k == "--mode") a.mode = next();
    else if (k == "--n") a.n = static_cast<std::uint32_t>(std::atoi(next()));
    else if (k == "--seed") a.seed = std::strtoull(next(), nullptr, 10);
    else if (k == "--txs") a.txs = std::strtoull(next(), nullptr, 10);
    else if (k == "--blocks") a.blocks = std::strtoull(next(), nullptr, 10);
    else {
      std::fprintf(stderr,
                   "usage: cluster_main [--mode inproc|tcp|tcp2] [--n N] "
                   "[--seed S] [--txs T] [--blocks B]\n");
      std::exit(2);
    }
  }
  return a;
}

void submit_workload(node::Cluster& cluster, std::uint64_t txs) {
  for (std::uint64_t id = 1; id <= txs; ++id) {
    txpool::Transaction tx;
    tx.id = id;
    tx.submit_time = cluster.node(0).now_us();
    tx.payload = Bytes(32, static_cast<std::uint8_t>(id));
    cluster.node(static_cast<ProcessId>(id % cluster.n()))
        .submit_tx(std::move(tx));
  }
}

int report(const std::vector<std::vector<core::DeliveredRecord>>& delivered,
           const std::vector<std::vector<core::CommitRecord>>& commits,
           double secs) {
  const auto violation = core::audit_logs(delivered, commits);
  if (violation.has_value()) {
    std::fprintf(stderr, "AUDIT FAILURE: %s\n", violation->c_str());
    return 1;
  }
  std::printf("ordered %zu blocks at node 0 in %.2fs (%.0f blocks/s), "
              "%zu commits; auditors clean\n",
              delivered[0].size(), secs,
              static_cast<double>(delivered[0].size()) / secs,
              commits[0].size());
  return 0;
}

/// --mode inproc and --mode tcp: one node::Cluster in this process.
int run_cluster(const Args& a, bool tcp) {
  node::NodeOptions opts;
  opts.seed = a.seed;
  node::ClusterTweaks tweaks;
  tweaks.tcp_transport = tcp;
  node::Cluster cluster(Committee::for_n(a.n), opts, std::move(tweaks));
  cluster.start();
  const auto t0 = std::chrono::steady_clock::now();
  submit_workload(cluster, a.txs);
  if (!cluster.wait_all_delivered(a.blocks, std::chrono::minutes(2))) {
    std::fprintf(stderr, "cluster stalled\n");
    return 1;
  }
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  cluster.stop();
  return report(cluster.delivered_logs(), cluster.commit_logs(), secs);
}

/// Builds the nodes this half of --mode tcp2 hosts ([lo, hi)) on TCP
/// transports.
std::vector<std::unique_ptr<node::Node>> make_tcp_nodes(
    const Committee& committee, const std::vector<net::TcpPeer>& peers,
    const coin::CoinDealer& dealer, std::uint64_t seed, ProcessId lo,
    ProcessId hi) {
  node::NodeOptions opts;
  opts.seed = seed;
  std::vector<std::unique_ptr<node::Node>> nodes;
  for (ProcessId pid = lo; pid < hi; ++pid) {
    nodes.push_back(std::make_unique<node::Node>(
        std::make_unique<net::TcpTransport>(committee, pid, peers), dealer,
        opts));
  }
  return nodes;
}

bool wait_delivered(std::vector<std::unique_ptr<node::Node>>& nodes,
                    std::uint64_t target) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::minutes(2);
  for (;;) {
    bool all = true;
    for (auto& n : nodes) {
      if (n->delivered_count() < target) {
        all = false;
        break;
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

/// Digest chain over the first `prefix` delivered records — two processes
/// comparing these literally compare their ordered histories.
crypto::Digest prefix_digest(const std::vector<core::DeliveredRecord>& log,
                             std::uint64_t prefix) {
  ByteWriter w;
  for (std::uint64_t i = 0; i < prefix; ++i) {
    w.raw(BytesView(log[i].block_digest.data(), log[i].block_digest.size()));
    w.u64(log[i].round);
    w.u32(log[i].source);
  }
  return crypto::sha256(w.bytes());
}

int run_tcp_two_processes(const Args& a) {
  const Committee committee = Committee::for_n(a.n);
  const auto ports = net::pick_free_ports(a.n);
  std::vector<net::TcpPeer> peers;
  for (auto p : ports) peers.push_back(net::TcpPeer{"127.0.0.1", p});
  const ProcessId split = committee.n / 2;

  // One pipe each way: the barrier byte and the child's prefix digest go
  // child -> parent, the barrier byte parent -> child.
  int to_parent[2];
  int to_child[2];
  if (::pipe(to_parent) != 0 || ::pipe(to_child) != 0) {
    std::perror("pipe");
    return 1;
  }

  // Fork BEFORE any thread exists; each process builds its own dealer from
  // the shared seed and hosts its half of the committee.
  const pid_t child = ::fork();
  if (child < 0) {
    std::perror("fork");
    return 1;
  }

  const bool is_child = child == 0;
  const int rx = is_child ? to_child[0] : to_parent[0];
  const int tx = is_child ? to_parent[1] : to_child[1];
  ::close(is_child ? to_child[1] : to_parent[1]);
  ::close(is_child ? to_parent[0] : to_child[0]);
  const ProcessId lo = is_child ? split : 0;
  const ProcessId hi = is_child ? committee.n : split;
  const coin::CoinDealer dealer(a.seed ^ coin::kDealerSeedTweak, committee);
  auto nodes = make_tcp_nodes(committee, peers, dealer, a.seed, lo, hi);
  for (auto& n : nodes) n->start();

  const bool ok = wait_delivered(nodes, a.blocks);
  // Barrier: this half's nodes may be part of every quorum the other half
  // still needs, so neither half stops them until the other has reached
  // the target or given up. A half that died reads as end of file.
  const char mine = ok ? 1 : 0;
  char theirs = 0;
  if (::write(tx, &mine, 1) != 1 || ::read(rx, &theirs, 1) != 1 || theirs != 1) {
    std::fprintf(stderr, "%s half: the other half did not reach %llu blocks\n",
                 is_child ? "child" : "parent",
                 static_cast<unsigned long long>(a.blocks));
  }
  for (auto& n : nodes) n->stop_loop();
  for (auto& n : nodes) n->stop_transport();

  std::vector<std::vector<core::DeliveredRecord>> delivered;
  std::vector<std::vector<core::CommitRecord>> commits;
  for (auto& n : nodes) {
    delivered.push_back(n->delivered_snapshot());
    commits.push_back(n->commits_snapshot());
  }

  if (is_child) {
    ::close(rx);
    int rc = 1;
    if (!ok) {
      std::fprintf(stderr, "child half stalled waiting for %llu blocks\n",
                   static_cast<unsigned long long>(a.blocks));
    } else if (auto v = core::audit_logs(delivered, commits)) {
      std::fprintf(stderr, "child AUDIT FAILURE: %s\n", v->c_str());
    } else {
      const crypto::Digest d = prefix_digest(delivered[0], a.blocks);
      if (::write(tx, d.data(), d.size()) == static_cast<ssize_t>(d.size())) {
        rc = 0;
      }
    }
    ::close(tx);
    std::_Exit(rc);  // skip static destructors shared with the parent image
  }

  ::close(tx);
  int rc = 1;
  crypto::Digest their_digest{};
  const bool got_digest =
      ::read(rx, their_digest.data(), their_digest.size()) ==
      static_cast<ssize_t>(their_digest.size());
  ::close(rx);
  int child_status = -1;
  ::waitpid(child, &child_status, 0);

  if (!ok) {
    std::fprintf(stderr, "parent half stalled\n");
  } else if (auto v = core::audit_logs(delivered, commits)) {
    std::fprintf(stderr, "parent AUDIT FAILURE: %s\n", v->c_str());
  } else if (!got_digest || !WIFEXITED(child_status) ||
             WEXITSTATUS(child_status) != 0) {
    std::fprintf(stderr, "child half failed\n");
  } else if (prefix_digest(delivered[0], a.blocks) != their_digest) {
    std::fprintf(stderr, "CROSS-PROCESS DISAGREEMENT on the first %llu blocks\n",
                 static_cast<unsigned long long>(a.blocks));
  } else {
    std::printf("two OS processes (%u + %u nodes) agree on the first %llu "
                "ordered blocks; auditors clean in both halves\n",
                split, committee.n - split,
                static_cast<unsigned long long>(a.blocks));
    rc = 0;
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.mode == "inproc") return run_cluster(a, /*tcp=*/false);
  if (a.mode == "tcp") return run_cluster(a, /*tcp=*/true);
  if (a.mode == "tcp2") return run_tcp_two_processes(a);
  std::fprintf(stderr, "unknown --mode %s\n", a.mode.c_str());
  return 2;
}
