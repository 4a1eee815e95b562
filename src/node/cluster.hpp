// n-node in-process cluster: one OS thread per node over the shared-memory
// transport (net::InProcNetwork) or loopback TCP, with the threshold-coin
// trusted setup derived from a single master seed. This is the fixture the
// runtime tests, the chaos soak, perfbench, cluster_main and the ordering
// head-to-head bench drive; cluster_main's two-process mode assembles its
// nodes by hand because its processes don't share an address space.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <vector>

#include "coin/dealer.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "node/node.hpp"

namespace dr::node {

/// Per-cluster deviations from the uniform NodeOptions: the chaos/Byzantine
/// knobs (DESIGN.md §12). transport_wrap decorates every node's endpoint
/// (e.g. with a net::ChaosTransport) — it is re-applied on restart_node, so
/// a rejoining node re-enters the same fault environment it crashed out of.
/// faults[pid] is node pid's NodeOptions::fault: the runtime's one seat.
struct ClusterTweaks {
  using TransportWrap = std::function<std::unique_ptr<net::Transport>(
      ProcessId pid, std::unique_ptr<net::Transport> inner)>;
  TransportWrap transport_wrap;
  std::vector<core::FaultKind> faults;  ///< empty = all kNone
  /// Node-to-node links over loopback TCP (net::TcpTransport) instead of the
  /// shared-memory transport: the full wire path (framing, handshakes,
  /// reader/writer threads), and with ingress enabled, client traffic and
  /// protocol traffic share a real network stack.
  bool tcp_transport = false;
};

class Cluster {
 public:
  explicit Cluster(Committee committee, NodeOptions opts = {},
                   ClusterTweaks tweaks = {});
  ~Cluster();

  void start();
  /// Two-phase teardown: joins every node's event loop before tearing down
  /// any transport, because peer node threads deliver straight into each
  /// other's inboxes (see Node::stop_loop/stop_transport).
  void stop();

  /// Crash-stops one node (full stop: loop + transport) while the rest of
  /// the cluster keeps running. Peers' sends to it drop, as on a real
  /// network partition.
  void stop_node(ProcessId pid);
  /// Changes one node's seat in ClusterTweaks::faults for subsequent
  /// (re)starts — e.g. a kMute node that crash-stops and comes back honest,
  /// the shape of the ingress at-least-once regression. Takes effect at the
  /// next restart_node(pid); the running instance is untouched.
  void set_fault(ProcessId pid, core::FaultKind fault);
  /// Replaces a stopped node with a fresh Node on the same endpoint slot and
  /// (when the cluster was built with a wal_dir) the same data directory —
  /// the restarted node recovers from its WAL, then catch-up sync fills the
  /// rounds it missed while down. Requires stop_node(pid) first.
  void restart_node(ProcessId pid);

  std::uint32_t n() const { return committee_.n; }
  const Committee& committee() const { return committee_; }
  Node& node(ProcessId pid) { return *nodes_[pid]; }
  const Node& node(ProcessId pid) const { return *nodes_[pid]; }

  /// Stable client-facing ingress port of one node (0 unless the cluster was
  /// built with opts.ingress_enable). Pre-picked at construction, so a node
  /// restarted via restart_node rebinds the same port and its clients can
  /// redial the endpoint they already know.
  std::uint16_t ingress_port(ProcessId pid) const {
    return ingress_ports_.empty() ? 0 : ingress_ports_[pid];
  }

  /// Polls until every node a_delivered >= count blocks, or timeout.
  bool wait_all_delivered(std::uint64_t count,
                          std::chrono::milliseconds timeout);

  /// Snapshots for the shared auditors (core/audit.hpp).
  std::vector<std::vector<core::DeliveredRecord>> delivered_logs() const;
  std::vector<std::vector<core::CommitRecord>> commit_logs() const;

 private:
  /// Per-node options: opts_.wal_dir (when set) is treated as a base
  /// directory and becomes <base>/node-<pid> for each node; tweaks_.faults
  /// fills the per-node fault.
  NodeOptions node_opts(ProcessId pid) const;
  std::unique_ptr<Node> build_node(ProcessId pid);

  Committee committee_;
  NodeOptions opts_;
  ClusterTweaks tweaks_;
  coin::CoinDealer dealer_;
  net::InProcNetwork net_;
  /// tweaks_.tcp_transport: where node i's protocol endpoint listens.
  std::vector<net::TcpPeer> tcp_peers_;
  /// opts_.ingress_enable: per-node client-facing ports, stable for the
  /// cluster's lifetime (restarts rebind them).
  std::vector<std::uint16_t> ingress_ports_;
  std::vector<std::unique_ptr<Node>> nodes_;
  bool started_ = false;
  bool stopped_ = false;
};

}  // namespace dr::node
