#include "node/cluster.hpp"

#include <string>
#include <thread>

namespace dr::node {

Cluster::Cluster(Committee committee, NodeOptions opts, ClusterTweaks tweaks)
    : committee_(committee),
      opts_(std::move(opts)),
      tweaks_(std::move(tweaks)),
      dealer_(opts_.seed ^ coin::kDealerSeedTweak, committee),
      net_(committee) {
  DR_ASSERT_MSG(committee_.valid(), "Cluster: committee must satisfy n > 3f");
  DR_ASSERT_MSG(tweaks_.profiles.empty() ||
                    tweaks_.profiles.size() == committee_.n,
                "ClusterTweaks::profiles must cover every node or none");
  if (tweaks_.tcp_transport) {
    for (std::uint16_t port : net::pick_free_ports(committee_.n)) {
      tcp_peers_.push_back(net::TcpPeer{"127.0.0.1", port});
    }
  }
  if (opts_.ingress_enable) {
    ingress_ports_ = net::pick_free_ports(committee_.n);
  }
  nodes_.reserve(committee_.n);
  for (ProcessId pid = 0; pid < committee_.n; ++pid) {
    nodes_.push_back(build_node(pid));
  }
}

NodeOptions Cluster::node_opts(ProcessId pid) const {
  NodeOptions o = opts_;
  if (!o.wal_dir.empty()) {
    o.wal_dir += "/node-" + std::to_string(pid);
  }
  if (!tweaks_.profiles.empty()) o.byzantine = tweaks_.profiles[pid];
  if (o.ingress_enable) o.ingress.port = ingress_ports_[pid];
  return o;
}

std::unique_ptr<Node> Cluster::build_node(ProcessId pid) {
  std::unique_ptr<net::Transport> transport;
  if (tweaks_.tcp_transport) {
    transport =
        std::make_unique<net::TcpTransport>(committee_, pid, tcp_peers_);
  } else {
    transport = net_.endpoint(pid);
  }
  if (tweaks_.transport_wrap) {
    transport = tweaks_.transport_wrap(pid, std::move(transport));
    DR_ASSERT_MSG(transport != nullptr, "transport_wrap returned null");
  }
  return std::make_unique<Node>(std::move(transport), &dealer_, node_opts(pid));
}

Cluster::~Cluster() { stop(); }

void Cluster::start() {
  if (started_) return;
  started_ = true;
  for (auto& n : nodes_) n->start();
}

void Cluster::stop() {
  if (stopped_) return;
  stopped_ = true;
  for (auto& n : nodes_) n->stop_loop();
  for (auto& n : nodes_) n->stop_transport();
}

void Cluster::stop_node(ProcessId pid) {
  DR_ASSERT(pid < nodes_.size() && nodes_[pid] != nullptr);
  // Full stop, both phases: this node's loop cannot be mid-delivery into a
  // peer (InProcEndpoint::send drains under the peer's lock), and peers'
  // sends to this node drop once its endpoint goes not-ready.
  nodes_[pid]->stop();
}

void Cluster::set_profile(ProcessId pid, core::ByzantineProfile profile) {
  DR_ASSERT(pid < committee_.n);
  if (tweaks_.profiles.empty()) {
    tweaks_.profiles.assign(committee_.n, opts_.byzantine);
  }
  tweaks_.profiles[pid] = profile;
}

void Cluster::restart_node(ProcessId pid) {
  DR_ASSERT(pid < nodes_.size());
  DR_ASSERT_MSG(started_ && !stopped_,
                "restart_node only on a running cluster");
  nodes_[pid]->stop();  // idempotent if stop_node already ran
  nodes_[pid].reset();  // old endpoint destroyed before the slot is re-bound
  nodes_[pid] = build_node(pid);
  nodes_[pid]->start();
}

bool Cluster::wait_all_delivered(std::uint64_t count,
                                 std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    bool all = true;
    for (auto& n : nodes_) {
      if (n->delivered_count() < count) {
        all = false;
        break;
      }
    }
    if (all) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

std::vector<std::vector<core::DeliveredRecord>> Cluster::delivered_logs()
    const {
  std::vector<std::vector<core::DeliveredRecord>> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->delivered_snapshot());
  return out;
}

std::vector<std::vector<core::CommitRecord>> Cluster::commit_logs() const {
  std::vector<std::vector<core::CommitRecord>> out;
  out.reserve(nodes_.size());
  for (const auto& n : nodes_) out.push_back(n->commits_snapshot());
  return out;
}

}  // namespace dr::node
