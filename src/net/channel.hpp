// Protocol multiplexing label shared by every message carrier: the simulated
// network, the real transports, and the wire frame format all tag messages
// with a Channel so one link can carry all protocol components. Lives in
// net/ (not sim/) because the wire codec must agree with the simulator on
// the numbering — it is part of the protocol's wire contract.
#pragma once

#include <cstdint>

namespace dr::net {

/// Each protocol component subscribes to one channel; a (to, channel) pair
/// identifies the delivery target.
enum class Channel : std::uint32_t {
  kBracha = 1,
  kAvid = 2,
  kGossip = 3,
  kCoin = 4,
  kVaba = 5,
  kDumbo = 6,
  kOracle = 7,
  kApp = 8,
  // 9 is reserved: the wire value of the retired binary-agreement channel.
  /// Catch-up sync (DESIGN.md §10): VertexRequest/VertexResponse exchanges
  /// between a lagging node and its peers. Off the critical path — losing or
  /// reordering sync frames only delays catch-up, never safety.
  kSync = 10,
  /// Client ingress tier (DESIGN.md §13): SubmitBatch / SubmitReply /
  /// CommitAcks between external clients and a node's tx-submission front
  /// end. Never appears on node-to-node links; the ingress server speaks it
  /// over its own client sessions.
  kIngress = 11,
};
inline constexpr std::uint32_t kChannelCount = 12;

/// True iff `raw` is a defined channel id (wire-input validation).
inline constexpr bool channel_valid(std::uint32_t raw) {
  return raw >= 1 && raw < kChannelCount;
}

}  // namespace dr::net
