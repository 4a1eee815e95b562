// Byzantine behaviour implementations used by the harness, tests, and
// fault-injection benches. These are attack *strategies* within the model —
// the protocol must neutralize them, and the test suite checks that it does.
//
// Strategies are written against net::Bus, the seam shared by the simulator
// (sim::Network) and the real-concurrency runtime (node::NodeBus), so the
// exact same adversarial code runs under the discrete-event scheduler and
// inside live threaded clusters (DESIGN.md §12). A profile replaces a
// process's reliable-broadcast component; core::ProcessStack installs it.
//
// Profiles (all strongest-form: honest participation except for the attack):
//   kEquivocate — conflicting vertex variants to each half of the committee
//                 (reliable broadcast Agreement must ensure all correct
//                 processes deliver the same variant, or none);
//   kMute       — withholds every own broadcast (a "crashed proposer" that
//                 still echoes/readies others' traffic, keeping quorums warm
//                 while contributing no chain quality);
//   kSelective  — sends its SEND only to a 2f+1 window anchored at itself,
//                 starving a rotating f-sized blind set of first-hand copies
//                 (Bracha echo amplification must route around it).
//
// The crafted-SEND profiles (equivocate, selective) speak BrachaRbc's wire
// format and therefore require rbc_kind == kBracha; ProcessStack asserts it.
#pragma once

#include <cstdint>
#include <memory>

#include "net/bus.hpp"
#include "rbc/rbc.hpp"

namespace dr::core {

enum class ByzantineProfile : std::uint8_t {
  kHonest = 0,
  kEquivocate,
  kMute,
  kSelective,
};

const char* to_string(ByzantineProfile p);

/// Attacking RBC: like any ReliableBroadcast, plus telemetry so tests can
/// assert the adversary actually attacked (a Byzantine test whose adversary
/// silently behaved is vacuous).
class ByzantineRbc : public rbc::ReliableBroadcast {
 public:
  virtual std::uint64_t attacks() const = 0;
};

/// Builds the attacking RBC for `profile` (never kHonest). `inner` is the
/// honestly-constructed component; kMute wraps it, the crafted-SEND
/// profiles discard it and construct their own Bracha instance (re-
/// subscribing on the bus replaces the handlers, so the discard is safe).
std::unique_ptr<ByzantineRbc> make_byzantine_rbc(
    ByzantineProfile profile, net::Bus& bus, ProcessId pid,
    std::unique_ptr<rbc::ReliableBroadcast> inner);

}  // namespace dr::core
