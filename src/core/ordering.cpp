#include "core/ordering.hpp"

#include <algorithm>

#include "common/assert.hpp"

namespace dr::core {

using dag::VertexId;

const char* to_string(OrderingKind kind) {
  switch (kind) {
    case OrderingKind::kDagRider:
      return "dagrider";
    case OrderingKind::kBullshark:
      return "bullshark";
  }
  return "unknown";
}

std::optional<OrderingKind> parse_ordering(std::string_view name) {
  if (name == "dagrider") return OrderingKind::kDagRider;
  if (name == "bullshark") return OrderingKind::kBullshark;
  return std::nullopt;
}

Round ordering_rounds_per_wave(OrderingKind kind) {
  return kind == OrderingKind::kBullshark ? 2 : kRoundsPerWave;
}

OrderingRule::OrderingRule(dag::DagBuilder& builder, coin::Coin& coin)
    : builder_(builder),
      coin_(coin),
      delivered_vertices_(builder.dag().committee().n) {
  builder_.set_wave_ready([this](Wave w) { on_wave_ready(w); });
}

void OrderingRule::restore(Wave decided_wave, std::uint64_t delivered_count,
                           const std::vector<VertexId>& delivered_ids) {
  DR_REQUIRE(decided_wave_ == 0 && next_wave_to_process_ == 1 &&
                 delivered_count_ == 0,
             "snapshot restore on a non-fresh ordering layer");
  decided_wave_ = decided_wave;
  next_wave_to_process_ = decided_wave + 1;
  floor_ = floor_of(decided_wave);
  for (const VertexId& id : delivered_ids) {
    if (id.round >= floor_) delivered_vertices_[id.source].insert(id.round);
  }
  delivered_count_ = delivered_count;
#if DR_CONTRACTS_ENABLED
  decide_monotone_.last_decided = decided_wave;
#endif
}

void OrderingRule::on_wave_ready(Wave w) {
  // WAL replay re-fires every wave boundary; waves the snapshot already
  // recorded as decided are settled and must not be re-evaluated (their
  // deliveries are in the snapshot's delivered set).
  if (w <= decided_wave_) return;
  ready_waves_.insert(w);
  // The personality supplies the wave's candidate: DagRider flips the coin
  // only now that the wave is complete (Alg. 3 line 35 — the adversary
  // cannot learn the leader before the common core is fixed); Bullshark
  // answers from the anchor schedule, or the coin on safety-net waves.
  prepare_wave(w);
  process_ready_waves();
}

void OrderingRule::resolve_candidate(Wave w, ProcessId leader) {
  candidates_.emplace(w, leader);
  process_ready_waves();
}

void OrderingRule::process_ready_waves() {
  // A threshold coin may resolve waves out of order; waves are handled
  // strictly in order so that line 40's look-back always finds the earlier
  // waves' candidates already resolved.
  if (processing_) return;  // guard: coin callbacks can reenter via deliver
  processing_ = true;
  while (ready_waves_.count(next_wave_to_process_) > 0 &&
         candidates_.count(next_wave_to_process_) > 0) {
    const Wave w = next_wave_to_process_;
    ++next_wave_to_process_;
    ready_waves_.erase(w);
    handle_wave(w, candidates_[w]);
  }
  processing_ = false;
}

std::optional<VertexId> OrderingRule::wave_leader_vertex(
    Wave w, ProcessId leader) const {
  const Round r1 = wave_round(w, 1, builder_.rounds_per_wave());
  const VertexId id{leader, r1};
  if (builder_.dag().contains(id)) return id;
  return std::nullopt;  // ⊥: leader vertex not (yet) in the local DAG
}

void OrderingRule::handle_wave(Wave w, ProcessId leader_process) {
  const dag::Dag& dag = builder_.dag();
  const Round rpw = builder_.rounds_per_wave();
  ++waves_evaluated_;

  // Alg. 3 lines 35-37, threshold per personality: candidate vertex present
  // and commit_threshold(w) last-round vertices with strong paths to it,
  // else no commit in this wave.
  const std::optional<VertexId> leader = wave_leader_vertex(w, leader_process);
  if (!leader.has_value() ||
      dag.strong_support_in_round(wave_round(w, rpw, rpw), *leader) <
          commit_threshold(w)) {
    ++waves_no_direct_;
    on_wave_outcome(w, false);
    return;
  }

  // Lines 38-43: push the leader, then walk back over undecided waves and
  // push every earlier candidate connected by a strong path (it may have
  // been committed by someone else; Lemma 1 forces us to order it first).
  std::vector<std::pair<Wave, VertexId>> leaders_stack;
  leaders_stack.emplace_back(w, *leader);
  VertexId v = *leader;
  for (Wave wp = w - 1; wp > decided_wave_; --wp) {
    DR_ASSERT_MSG(candidates_.count(wp) > 0,
                  "waves processed in order: earlier candidate must be known");
    const std::optional<VertexId> vp =
        wave_leader_vertex(wp, candidates_[wp]);
    if (vp.has_value() && dag.strong_path(v, *vp)) {
      leaders_stack.emplace_back(wp, *vp);
      v = *vp;
    }
  }
  // Commit rule postcondition (Lemma 5): the directly committed leader
  // really has the personality's strong-path support in the wave's last
  // round — rechecked here so a future refactor of the gate above cannot
  // silently weaken it.
  DR_ENSURE(dag.strong_support_in_round(wave_round(w, rpw, rpw), *leader) >=
                commit_threshold(w),
            "direct commit without the commit-threshold strong-path support");
#if DR_CONTRACTS_ENABLED
  decide_monotone_.on_decide(w);
#endif
  decided_wave_ = w;  // line 44
  on_wave_outcome(w, true);
  order_vertices(leaders_stack);
  // The walk-back reads candidates only above decided_wave_.
  candidates_.erase(candidates_.begin(), candidates_.upper_bound(w));

  floor_ = floor_of(decided_wave_);
  if (floor_ > 0) {
    // The builder may hold its own floor lower (laggard holdback keeps
    // history servable), but delivery reads floor_ alone.
    builder_.apply_gc_floor(floor_);
    // The delivered set no longer needs rounds below the floor: the
    // traversal prunes that region wholesale.
    for (RoundSet& rounds : delivered_vertices_) rounds.erase_below(floor_);
  }
}

Round OrderingRule::floor_of(Wave w) const {
  if (gc_depth_rounds_ == 0 || w == 0) return 0;
  const Round r1 = wave_round(w, 1, builder_.rounds_per_wave());
  return r1 > gc_depth_rounds_ + 1 ? r1 - gc_depth_rounds_ : 0;
}

void OrderingRule::order_vertices(
    std::vector<std::pair<Wave, VertexId>>& leaders_stack) {
  const dag::Dag& dag = builder_.dag();
  // The traversal below never enters the compacted region (payloads and
  // edge lists are gone there) only because it stops at floor_.
  DR_INVARIANT(dag.compacted_floor() <= floor_,
               "builder compacted above the ordering floor");
  // Pop in reverse push order: earliest wave's leader delivers first.
  while (!leaders_stack.empty()) {
    const auto [wave, leader] = leaders_stack.back();
    leaders_stack.pop_back();
    const bool direct = leaders_stack.empty();  // last popped == direct commit
    if (commit_observer_) commit_observer_(wave, leader, direct);

    // Line 54: every vertex with a path from the leader, not yet delivered.
    // Genesis vertices (round 0) carry no payload and are skipped, as is
    // anything below the ordering floor (below it == delivered by the GC
    // contract). The floor depends on the decided wave alone, never on the
    // builder's held-back compaction, so every correct process skips the
    // same rounds. Pruning at delivered vertices is sound because the
    // delivered set is causally closed (ancestors of a delivered vertex
    // are delivered).
    std::vector<VertexId> to_deliver = dag.causal_history(
        leader, [this](VertexId id) {
          return id.round == 0 || id.round < floor_ ||
                 delivered_vertices_[id.source].contains(id.round);
        });
    // "In some deterministic order" (line 55): by (round, source).
    std::sort(to_deliver.begin(), to_deliver.end());
    for (const VertexId& id : to_deliver) {
      const dag::Vertex* vx = dag.get(id);
      DR_ASSERT(vx != nullptr);
      const bool fresh = delivered_vertices_[id.source].insert(id.round);
      // BAB Integrity (§2.1): at most one a_deliver per vertex. The
      // traversal's skip predicate prunes delivered vertices, so a stale id
      // here means the causal-closure argument behind that pruning broke.
      DR_ENSURE(fresh, "vertex a_delivered twice (BAB Integrity)");
      (void)fresh;
      ++delivered_count_;
      // The block digest comes off the vertex's retained wire buffer — the
      // one place it is computed; downstream consumers must not re-hash.
      if (a_deliver_) a_deliver_(vx->block, vx->block_digest(), vx->round, vx->source);
    }
  }
}

// --- DagRider personality --------------------------------------------------

void DagRider::prepare_wave(Wave w) {
  coin().choose_leader(w, [this, w](ProcessId leader) {
    resolve_candidate(w, leader);
  });
}

std::uint32_t DagRider::commit_threshold(Wave) const {
  return builder().dag().committee().quorum();
}

// --- BullsharkRider personality --------------------------------------------

BullsharkRider::BullsharkRider(dag::DagBuilder& builder, coin::Coin& coin,
                               BullsharkOptions opts)
    : OrderingRule(builder, coin), opts_(std::move(opts)) {
  DR_ASSERT_MSG(builder.rounds_per_wave() == 2,
                "Bullshark's commit rule is defined over 2-round waves "
                "(build via ordering_rounds_per_wave)");
}

ProcessId BullsharkRider::anchor_of(Wave w) const {
  if (opts_.anchor_of) return opts_.anchor_of(w);
  return static_cast<ProcessId>((w - 1) % builder().dag().committee().n);
}

void BullsharkRider::prepare_wave(Wave w) {
  if (is_fallback_wave(w)) {
    // Safety-net wave: same unpredictable-leader draw as DagRider.
    coin().choose_leader(w, [this, w](ProcessId leader) {
      resolve_candidate(w, leader);
    });
    return;
  }
  resolve_candidate(w, anchor_of(w));
}

std::uint32_t BullsharkRider::commit_threshold(Wave) const {
  // n - 2f: the smallest vote count whose intersection with any 2f+1
  // strong-edge set is non-empty, which is what makes a directly committed
  // anchor visible (by strong path) to every later round's vertices — the
  // exact property the walk-back's adoption argument consumes. Equals f+1
  // at n = 3f+1 (the Bullshark paper's committee shape).
  return builder().dag().committee().vote_quorum();
}

void BullsharkRider::on_wave_outcome(Wave w, bool committed) {
  if (is_fallback_wave(w)) {
    // Coin waves say nothing about anchor health; they only keep the log
    // growing while the steady path is under attack.
    if (committed) ++fallback_commits_;
    return;
  }
  if (committed) {
    ++steady_commits_;
    consecutive_misses_ = 0;
    mode_ = Mode::kSteady;
    return;
  }
  ++consecutive_misses_;
  if (mode_ == Mode::kSteady &&
      consecutive_misses_ >= kBullsharkMissThreshold) {
    mode_ = Mode::kFallback;
    ++fallback_entries_;
  }
}

std::unique_ptr<OrderingRule> make_ordering(OrderingKind kind,
                                            dag::DagBuilder& builder,
                                            coin::Coin& coin,
                                            BullsharkOptions bullshark) {
  switch (kind) {
    case OrderingKind::kDagRider:
      return std::make_unique<DagRider>(builder, coin);
    case OrderingKind::kBullshark:
      return std::make_unique<BullsharkRider>(builder, coin,
                                              std::move(bullshark));
  }
  DR_ASSERT_MSG(false, "unknown ordering kind");
  return nullptr;
}

}  // namespace dr::core
