// The one fault vocabulary of the simulator (core::System) and the runtime
// (node::Cluster), and the attack strategies core::ProcessStack plays. These
// are attack *strategies* within the model — the protocol must neutralize
// them, and the test suite checks that it does.
//
// Strategies are written against net::Bus, the seam shared by the simulator
// (sim::Network) and the real-concurrency runtime (node::NodeBus), so the
// exact same adversarial code runs under the discrete-event scheduler and
// inside live threaded clusters (DESIGN.md §12). The stack plays mute,
// equivocate and selective by replacing the process's reliable-broadcast
// component, participating honestly except for the attack. The host plays
// crash and stealthy around an honest stack; only the simulator hosts them.
//
// The crafted-SEND faults (equivocate, selective) speak BrachaRbc's wire
// format and therefore require rbc_kind == kBracha; ProcessStack asserts it.
#pragma once

#include <cstdint>
#include <memory>

#include "net/bus.hpp"
#include "rbc/rbc.hpp"

namespace dr::core {

enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCrash,       ///< sends and receives nothing, ever
  kMute,        ///< echoes/readies others' broadcasts, withholds every own one
  kEquivocate,  ///< conflicting vertex variants to each half of the
                ///< committee; RBC Agreement must deliver one or none
  kSelective,   ///< own SEND only to a 2f+1 window anchored at itself; echo
                ///< amplification must reach the rotating f-sized blind set
  kStealthy,    ///< behaves like a correct process but counts as Byzantine:
                ///< the chain-quality worst case
};

const char* to_string(FaultKind fault);

/// True for mute, equivocate and selective: the faults ProcessStack plays.
bool stack_plays(FaultKind fault);

/// Attacking RBC: like any ReliableBroadcast, plus telemetry so tests can
/// assert the adversary actually attacked (a Byzantine test whose adversary
/// silently behaved is vacuous).
class ByzantineRbc : public rbc::ReliableBroadcast {
 public:
  virtual std::uint64_t attacks() const = 0;
};

/// Builds the attacking RBC for `fault` (one stack_plays). `inner` is the
/// honestly-constructed component; kMute wraps it, the crafted-SEND
/// faults discard it and construct their own Bracha instance (re-
/// subscribing on the bus replaces the handlers, so the discard is safe).
std::unique_ptr<ByzantineRbc> make_byzantine_rbc(
    FaultKind fault, net::Bus& bus, ProcessId pid,
    std::unique_ptr<rbc::ReliableBroadcast> inner);

}  // namespace dr::core
