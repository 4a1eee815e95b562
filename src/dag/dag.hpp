// Local DAG view (the paper's DAG_i[]). Stores vertices by (round, source)
// and answers the reachability questions of Alg. 1-3: path / strong_path
// (Alg. 1 lines 1-4), the commit rule's strong support (Alg. 3 line 36),
// the weak-edge set of a new vertex (Alg. 2 lines 27-31), and the
// causal-history traversals behind order_vertices (Alg. 3 line 54).
//
// Per-vertex state is O(1): the vertex itself plus the lowest round of any
// vertex referring to it. Strong-path questions are bounded level walks
// over edge lists; the weak-edge set falls out of the referrer rounds
// (DESIGN.md §5).
//
// Invariant (Claim 1 by construction): a vertex is only inserted after all
// vertices it references, so a vertex's referrers all arrive after it.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "common/types.hpp"
#include "dag/vertex.hpp"

namespace dr::dag {

class Dag {
 public:
  /// Builds the DAG with the hardcoded genesis round 0 of 2f+1 vertices
  /// from sources 0..2f (Alg. 1 initialization).
  explicit Dag(Committee committee);

  const Committee& committee() const { return committee_; }

  bool contains(VertexId id) const;
  const Vertex* get(VertexId id) const;

  /// Number of vertices known in round r.
  std::uint32_t round_size(Round r) const;
  /// Sources present in round r, ascending.
  std::vector<ProcessId> round_sources(Round r) const;
  /// Highest round with at least one vertex.
  Round max_round() const { return rounds_.empty() ? 0 : rounds_.size() - 1; }
  std::uint64_t vertex_count() const { return vertex_count_; }

  /// Inserts v. Precondition: all strong/weak predecessors are present
  /// (the DagBuilder's buffer gates on this, Alg. 2 line 7) — except
  /// predecessors in rounds below compacted_floor(), which WAL restore and
  /// catch-up sync may reference after GC freed their slots — and no vertex
  /// with the same id exists (reliable broadcast Integrity).
  void insert(Vertex v);

  /// path(v, u): directed path using strong and weak edges (Alg. 1 line 1).
  /// A causal-history walk from `from` pruned below `to`'s round.
  bool path(VertexId from, VertexId to) const;
  /// strong_path(v, u): path using only strong edges (Alg. 1 line 3). Walks
  /// down from `from` one round at a time, keeping the n-wide set of
  /// strongly reached sources; O(n² · (from.round − to.round)), and stops
  /// early once that set is empty.
  bool strong_path(VertexId from, VertexId to) const;

  /// Number of vertices in round r with a strong path to `to` — the
  /// commit-rule quorum count (Alg. 3 line 36). Propagates the set of
  /// round-by-round strong descendants of `to` up to round r:
  /// O(n² · (r − to.round)).
  std::uint32_t strong_support_in_round(Round r, VertexId to) const;

  /// Alg. 2 lines 27-31: the weak edges of a vertex proposed at round r
  /// whose strong edges reference every vertex present in round r−1 — every
  /// u with max(1, compacted_floor()) ≤ u.round ≤ r−2 that no inserted
  /// vertex at round ≤ r−1 refers to, round-descending then
  /// source-ascending. That is exactly the set the paper's top-down
  /// "¬path ⇒ add edge" loop produces (DESIGN.md §5 has the argument).
  /// Proposal rounds only rise: r must not be below the previous query's.
  std::vector<VertexId> weak_edge_targets(Round r);

  /// Garbage collection (an extension; the paper itself never prunes, its
  /// production descendants — Narwhal/Bullshark — do exactly this): frees
  /// the blocks, edge lists and wire buffers of every vertex in rounds
  /// < floor. Contract: the caller (the ordering layer) compacts only
  /// rounds whose delivered vertices it no longer needs; afterwards
  /// path/strong_path with a target below the floor return false, and
  /// causal-history traversals must prune at delivered vertices (they
  /// already do).
  void compact_below(Round floor);
  Round compacted_floor() const { return compacted_floor_; }
  /// Bytes held by the blocks, edge lists and wire buffers of uncompacted
  /// vertices — the memory introspection hook used by the GC tests.
  std::size_t retained_bytes() const;

  /// All vertices u with path(from, u) (including `from` itself) for which
  /// skip(u) is false, pruned at skipped vertices: the traversal does not
  /// descend below a skipped vertex. Sound for delivery because the
  /// delivered set is causally closed (ancestors of delivered vertices are
  /// delivered). Result is unordered; callers sort deterministically.
  std::vector<VertexId> causal_history(
      VertexId from, const std::function<bool(VertexId)>& skip) const;

 private:
  /// min_referrer value of a vertex nothing refers to yet.
  static constexpr Round kNoReferrer = ~Round{0};

  struct Stored {
    Vertex vertex;
    /// Lowest round of any inserted vertex with an edge (strong or weak)
    /// to this one; kNoReferrer until the first arrives.
    Round min_referrer = kNoReferrer;
  };

  const Stored* stored(VertexId id) const;
  Stored* stored(VertexId id) {
    return const_cast<Stored*>(std::as_const(*this).stored(id));
  }

  Committee committee_;
  /// rounds_[r][source] — the per-round vertex slots of DAG_i[].
  std::vector<std::vector<std::optional<Stored>>> rounds_;
  std::uint64_t vertex_count_ = 0;
  Round compacted_floor_ = 0;
  /// Uncompacted vertices that may still be weak-edge targets of a future
  /// proposal; weak_edge_targets drops the ones that no longer can.
  std::vector<VertexId> weak_candidates_;
  /// Round of the last weak_edge_targets query.
  Round last_weak_round_ = 0;
};

}  // namespace dr::dag
