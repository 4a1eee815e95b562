// Ordering-strategy seam over the shared DAG. The wave/commit machinery of
// Algorithm 3 — in-order wave processing, the strong-path commit gate, the
// transitive walk-back over undecided waves, deterministic causal-history
// a_delivery, GC-floor maintenance — is personality-independent; what varies
// between DAG-BFT protocols is only the per-wave leader-candidate function
// and the commit-support threshold. OrderingRule owns the shared machinery
// and sends no messages (it reads the local DAG and the coin); the two
// personalities parameterize it:
//
//  * DagRider — the paper's asynchronous rule: 4-round waves, leaders drawn
//    from the common coin after the wave completes, 2f+1 strong-path
//    support required for a direct commit.
//  * BullsharkRider — the partially-synchronous Bullshark rule: 2-round
//    waves, predefined round-robin anchors known in advance, n-2f votes
//    (f+1 at n=3f+1) in the wave's second round, with every
//    kBullsharkFallbackStride-th wave an asynchronous safety-net wave whose
//    leader comes from the coin — the deterministic, replayable realization of
//    "fall back to the asynchronous path under attack" (DESIGN.md §14).
//
// Safety note (why one seam can host both rules): all correct processes
// agree on each wave's single candidate (coin agreement, or a deterministic
// anchor schedule), strong_path is objective given causal closure, and any
// commit-threshold T >= n-2f makes a directly-committed candidate reachable
// by strong path from every vertex of every later round (T voters intersect
// any 2f+1 strong-edge set). Those three facts are exactly what the Lemma
// 5-8 arguments consume, so the walk-back adopts identical leader sequences
// at every correct process under either personality.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "coin/coin.hpp"
#include "common/round_set.hpp"
#include "core/contract.hpp"
#include "dag/builder.hpp"

namespace dr::core {

/// Contract bookkeeping for the decide step (Alg. 3 line 44): waves are
/// decided in strictly increasing order, which is what makes the line 40
/// look-back exhaustive and the delivered order a growing prefix (Lemmas
/// 7-8, Total Order). OrderingRule owns one; it is a standalone struct so
/// the contract suite (tests/test_contract.cpp) can prove the invariant
/// fires on an out-of-order commit without reaching into rider internals.
struct WaveCommitMonotone {
  Wave last_decided = 0;

  void on_decide(Wave w) {
    DR_REQUIRE(w > last_decided,
               "wave decided out of order (Alg. 3 line 44 monotonicity)");
    last_decided = w;
  }
};

/// Which commit rule orders the DAG. Stamped into recovery snapshots
/// (storage/snapshot.hpp): the two personalities decide different wave
/// sequences, so replaying one's durable state under the other would
/// silently fork the delivered order.
enum class OrderingKind : std::uint8_t {
  kDagRider = 0,   ///< asynchronous, 4-round waves, coin leaders (Alg. 3)
  kBullshark = 1,  ///< partially synchronous, 2-round waves, anchors
};

const char* to_string(OrderingKind kind);
std::optional<OrderingKind> parse_ordering(std::string_view name);

/// Wave geometry the personality's commit rule is defined over — DagRider's
/// 4-round waves (Alg. 3), Bullshark's 2-round waves. core::ProcessStack
/// builds the DAG builder with it; nothing else sets the wave length.
Round ordering_rounds_per_wave(OrderingKind kind);

/// Every kBullsharkFallbackStride-th Bullshark wave is an asynchronous
/// safety-net wave: its leader is drawn from the common coin instead of the
/// anchor schedule, so an adversary that mutes or partitions the (public)
/// anchors cannot stall commits forever — the coin leader is unpredictable
/// until the wave's votes are already cast.
inline constexpr Wave kBullsharkFallbackStride = 4;
/// Consecutive steady-wave anchor misses before the node-local state machine
/// reports kFallback mode (telemetry + chaos-test observable; the commit rule
/// itself is deterministic and identical at every process).
inline constexpr std::uint64_t kBullsharkMissThreshold = 2;

/// Test seam of the Bullshark personality: the chaos suite overrides the
/// anchor schedule to stage leader-targeting attacks.
struct BullsharkOptions {
  /// Steady-wave anchor schedule override; default is round-robin
  /// (w-1) % n. Tests point every anchor at a muted process to prove the
  /// safety-net waves alone keep the log growing.
  std::function<ProcessId(Wave)> anchor_of;
};

/// Base class: Algorithm 3's machinery with the candidate function and the
/// commit threshold left virtual. Consumes wave_ready signals from the DAG
/// builder, commits wave candidates via the strong-path rule, recovers
/// skipped waves transitively, and a_delivers causal histories
/// deterministically.
class OrderingRule {
 public:
  /// a_deliver(m, r, k). `block_digest` is the memoized digest of `block`,
  /// computed once at the codec boundary — consumers must use it instead of
  /// re-hashing the block bytes.
  using DeliverFn = std::function<void(const Bytes& block,
                                       const crypto::Digest& block_digest,
                                       Round r, ProcessId source)>;
  /// Observer fired when a wave leader is committed (popped for delivery);
  /// reports (wave, leader vertex, direct) where direct=false means the
  /// leader was recovered transitively from a later wave's commit.
  using CommitFn = std::function<void(Wave w, dag::VertexId leader, bool direct)>;

  OrderingRule(dag::DagBuilder& builder, coin::Coin& coin);
  virtual ~OrderingRule() = default;

  OrderingRule(const OrderingRule&) = delete;
  OrderingRule& operator=(const OrderingRule&) = delete;

  virtual OrderingKind kind() const = 0;

  void set_deliver(DeliverFn fn) { a_deliver_ = std::move(fn); }
  void set_commit_observer(CommitFn fn) { commit_observer_ = std::move(fn); }

  /// Enables DAG garbage collection (an extension over the paper; its
  /// production descendants do the same). Once wave w is decided, the
  /// ordering floor is round(w, 1) - depth_rounds: a_deliver treats every
  /// vertex below it as settled, at every correct process alike, because
  /// the floor is a function of the decided wave alone. The builder is asked
  /// to compact below the same round; its laggard holdback may keep more
  /// history (retention), never less. Trade-off: a correct process whose
  /// vertex arrives more than ~depth_rounds late loses that proposal
  /// (Validity becomes bounded-window); memory becomes bounded by the window
  /// instead of growing with the run.
  void enable_gc(Round depth_rounds) { gc_depth_rounds_ = depth_rounds; }

  /// a_bcast(b, r): r is implicit — correct processes broadcast blocks with
  /// consecutive sequence numbers, realized by the builder's round counter.
  void a_bcast(Bytes block) { builder_.enqueue_block(std::move(block)); }

  /// Seeds ordering state from a recovery snapshot (DESIGN.md §10), before
  /// the builder replays the WAL: waves up to `decided_wave` are treated as
  /// already decided (their re-fired wave_ready signals are suppressed), and
  /// `delivered_ids` marks vertices the pre-crash run already a_delivered so
  /// deterministic replay does not deliver them twice. The ordering floor is
  /// re-derived from `decided_wave`, and ids below it are dropped (the floor
  /// settles them). Must run on a fresh rider, after enable_gc.
  /// `delivered_count` continues the pre-crash sequence numbering.
  void restore(Wave decided_wave, std::uint64_t delivered_count,
               const std::vector<dag::VertexId>& delivered_ids);

  Wave decided_wave() const { return decided_wave_; }
  std::uint64_t delivered_count() const { return delivered_count_; }
  /// Wave candidates held: those of the waves above decided_wave() whose
  /// leader is known. Bounded by the undecided waves, not by the run.
  std::size_t candidates_held() const { return candidates_.size(); }
  /// Number of waves evaluated whose commit rule failed directly (skipped at
  /// evaluation time; they may still be recovered transitively later).
  std::uint64_t waves_without_direct_commit() const { return waves_no_direct_; }
  std::uint64_t waves_evaluated() const { return waves_evaluated_; }

 protected:
  /// Called once per ready wave, in wave order. The personality must
  /// arrange for resolve_candidate(w, p) to be invoked (synchronously or
  /// later, e.g. when enough coin shares arrive) with the wave's single
  /// globally-agreed candidate process.
  virtual void prepare_wave(Wave w) = 0;
  /// Strong-path support (counted in the wave's last round) required for a
  /// direct commit. Safety requires >= n - 2f (Committee::vote_quorum).
  virtual std::uint32_t commit_threshold(Wave w) const = 0;
  /// Outcome report at evaluation time: `committed` tells whether wave w
  /// directly committed. Transitive walk-back adoptions do not re-report.
  virtual void on_wave_outcome(Wave /*w*/, bool /*committed*/) {}

  /// The personality's answer to prepare_wave.
  void resolve_candidate(Wave w, ProcessId leader);

  const dag::DagBuilder& builder() const { return builder_; }
  coin::Coin& coin() { return coin_; }

 private:
  void on_wave_ready(Wave w);
  /// Runs every ready wave whose candidate (and all earlier candidates)
  /// resolved.
  void process_ready_waves();
  void handle_wave(Wave w, ProcessId leader_process);
  /// get_wave_vertex_leader (Alg. 3 line 46): the candidate's round(w,1)
  /// vertex in the local DAG, if present.
  std::optional<dag::VertexId> wave_leader_vertex(Wave w, ProcessId leader) const;
  void order_vertices(std::vector<std::pair<Wave, dag::VertexId>>& leaders_stack);
  /// The ordering floor once wave w is decided: round(w, 1) -
  /// gc_depth_rounds_ when that is above 1, else 0 (always 0 with GC off).
  Round floor_of(Wave w) const;

  dag::DagBuilder& builder_;
  coin::Coin& coin_;
  DeliverFn a_deliver_;
  CommitFn commit_observer_;

  Wave decided_wave_ = 0;
  Wave next_wave_to_process_ = 1;
  std::set<Wave> ready_waves_;
  std::map<Wave, ProcessId> candidates_;  ///< waves above decided_wave_ only
  /// a_delivered rounds at and above floor_, indexed by source.
  std::vector<RoundSet> delivered_vertices_;
  std::uint64_t delivered_count_ = 0;
  std::uint64_t waves_no_direct_ = 0;
  std::uint64_t waves_evaluated_ = 0;
  bool processing_ = false;
  Round gc_depth_rounds_ = 0;  ///< 0 = GC disabled (the paper's semantics)
  /// Ordering floor: vertices below it count as delivered. The one floor
  /// that decides a_deliver; the builder's compacted floor never exceeds it.
  Round floor_ = 0;
  DR_CONTRACT_STATE(WaveCommitMonotone decide_monotone_;)
};

/// DAG-Rider — Algorithm 3, the asynchronous personality: the leader is
/// drawn from the common coin only after the wave's last round is complete
/// (the adversary cannot learn it before the common core is fixed), and a
/// direct commit needs a 2f+1 strong-path quorum.
class DagRider final : public OrderingRule {
 public:
  DagRider(dag::DagBuilder& builder, coin::Coin& coin)
      : OrderingRule(builder, coin) {}

  OrderingKind kind() const override { return OrderingKind::kDagRider; }

 protected:
  void prepare_wave(Wave w) override;
  std::uint32_t commit_threshold(Wave) const override;
};

/// Bullshark's partially-synchronous commit rule over 2-round waves:
/// wave w's steady-state anchor is predefined (round-robin by default) and
/// commits on n-2f strong-path votes in the wave's second round — one
/// round-trip of latency instead of DAG-Rider's four rounds plus a coin.
/// Every kBullsharkFallbackStride-th wave draws its leader from the coin
/// instead: under an anchor-targeting attack those safety-net waves keep the
/// log growing, because their leaders are unpredictable until the votes are
/// already in the DAG. A node-local miss counter reports degraded (fallback)
/// mode for telemetry and the chaos suite; the commit rule itself never
/// depends on local timing, which is what keeps replay deterministic and
/// all correct processes in agreement on every wave's candidate.
class BullsharkRider final : public OrderingRule {
 public:
  /// Requires builder.rounds_per_wave() == 2 (callers build it via
  /// ordering_rounds_per_wave).
  BullsharkRider(dag::DagBuilder& builder, coin::Coin& coin,
                 BullsharkOptions opts = {});

  OrderingKind kind() const override { return OrderingKind::kBullshark; }

  /// Node-local liveness health: kSteady while anchors keep committing,
  /// kFallback after kBullsharkMissThreshold consecutive anchor misses (left
  /// again on the next direct steady-wave commit).
  enum class Mode : std::uint8_t { kSteady, kFallback };

  Mode mode() const { return mode_; }
  bool is_fallback_wave(Wave w) const {
    return w % kBullsharkFallbackStride == 0;
  }
  /// Steady-wave anchor schedule (round-robin unless overridden).
  ProcessId anchor_of(Wave w) const;

  std::uint64_t steady_commits() const { return steady_commits_; }
  std::uint64_t fallback_commits() const { return fallback_commits_; }
  /// kSteady -> kFallback transitions over the run.
  std::uint64_t fallback_entries() const { return fallback_entries_; }

 protected:
  void prepare_wave(Wave w) override;
  std::uint32_t commit_threshold(Wave) const override;
  void on_wave_outcome(Wave w, bool committed) override;

 private:
  BullsharkOptions opts_;
  Mode mode_ = Mode::kSteady;
  std::uint64_t consecutive_misses_ = 0;
  std::uint64_t steady_commits_ = 0;
  std::uint64_t fallback_commits_ = 0;
  std::uint64_t fallback_entries_ = 0;
};

/// Personality factory. `bullshark` is consulted only for kBullshark.
std::unique_ptr<OrderingRule> make_ordering(OrderingKind kind,
                                            dag::DagBuilder& builder,
                                            coin::Coin& coin,
                                            BullsharkOptions bullshark = {});

}  // namespace dr::core
