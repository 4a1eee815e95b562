// Differential property test of the DAG's reachability answers. Random DAGs
// at n = 4 and n = 7 are inserted in random causality-respecting orders that
// deliver some vertices many rounds late, with and without compaction; after
// every insert, weak_edge_targets, strong_path, strong_support_in_round and
// path are compared against brute-force references written here on top of
// causal_history and plain strong-edge walks.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "dag/dag.hpp"

namespace dr::dag {
namespace {

const auto kSkipNone = [](VertexId) { return false; };

/// Every vertex reachable from `from` over strong and weak edges.
std::set<VertexId> closure(const Dag& dag, VertexId from) {
  const std::vector<VertexId> hist = dag.causal_history(from, kSkipNone);
  return {hist.begin(), hist.end()};
}

/// Every vertex reachable from `from` over strong edges only.
std::set<VertexId> strong_closure(const Dag& dag, VertexId from) {
  std::set<VertexId> seen;
  if (!dag.contains(from)) return seen;
  std::vector<VertexId> stack{from};
  seen.insert(from);
  while (!stack.empty()) {
    const VertexId id = stack.back();
    stack.pop_back();
    if (id.round == 0) continue;
    for (ProcessId p : dag.get(id)->strong_edges) {
      const VertexId parent{p, id.round - 1};
      if (dag.contains(parent) && seen.insert(parent).second) {
        stack.push_back(parent);
      }
    }
  }
  return seen;
}

/// Alg. 2 lines 27-31 as written: strong edges to every round r-1 vertex,
/// then top-down from round r-2, a weak edge to each vertex not yet
/// reachable, whose history then counts as reachable too.
std::vector<VertexId> reference_weak_targets(const Dag& dag, Round r) {
  std::vector<VertexId> out;
  if (r < 3) return out;
  std::set<VertexId> covered;
  const auto cover = [&](VertexId u) {
    const std::set<VertexId> c = closure(dag, u);
    covered.insert(c.begin(), c.end());
  };
  for (ProcessId p : dag.round_sources(r - 1)) cover(VertexId{p, r - 1});
  const Round floor = std::max<Round>(1, dag.compacted_floor());
  for (Round q = r - 2; q >= floor; --q) {
    for (ProcessId p : dag.round_sources(q)) {
      const VertexId u{p, q};
      if (covered.count(u) > 0) continue;
      out.push_back(u);
      cover(u);
    }
  }
  return out;
}

struct Planned {
  Vertex vertex;
  bool late = false;
  double key = 0;  ///< insertion priority among ready vertices (lower first)
};

/// A random DAG of `rounds` rounds: 2f+1..n vertices a round, each with
/// 2f+1..k strong edges to the round below and sometimes weak edges to
/// older vertices. Some vertices are late: only weak edges, if anything,
/// refer to them, so they may be inserted many rounds after their own.
std::vector<Planned> plan_dag(const Committee& c, Round rounds,
                              Xoshiro256& rng) {
  std::vector<Planned> plan;
  std::vector<ProcessId> prev_on_time;
  for (ProcessId p = 0; p < c.quorum(); ++p) prev_on_time.push_back(p);
  std::vector<VertexId> older;  // weak-edge targets: rounds <= r-2
  std::vector<VertexId> prev_round;
  for (Round r = 1; r <= rounds; ++r) {
    std::vector<ProcessId> sources(c.n);
    for (ProcessId p = 0; p < c.n; ++p) sources[p] = p;
    std::shuffle(sources.begin(), sources.end(), rng);
    sources.resize(c.quorum() + rng.below(c.n - c.quorum() + 1));
    std::vector<ProcessId> on_time;
    std::vector<VertexId> this_round;
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const ProcessId p = sources[i];
      Planned pl;
      pl.late = i >= c.quorum() && rng.below(2) == 0;
      Vertex& v = pl.vertex;
      v.source = p;
      v.round = r;
      v.block = Bytes{static_cast<std::uint8_t>(p)};
      std::vector<ProcessId> strong = prev_on_time;
      std::shuffle(strong.begin(), strong.end(), rng);
      strong.resize(c.quorum() +
                    rng.below(strong.size() - c.quorum() + 1));
      std::sort(strong.begin(), strong.end());
      v.strong_edges = std::move(strong);
      if (!older.empty() && rng.below(2) == 0) {
        const std::size_t weak = 1 + rng.below(2);
        for (std::size_t k = 0; k < weak; ++k) {
          const VertexId u = older[rng.below(older.size())];
          if (std::find(v.weak_edges.begin(), v.weak_edges.end(), u) ==
              v.weak_edges.end()) {
            v.weak_edges.push_back(u);
          }
        }
      }
      // Late vertices mostly trail by a few rounds, now and then by ten.
      const double lag = rng.uniform();
      pl.key = static_cast<double>(r) +
               (pl.late ? 2.0 + 10.0 * lag * lag : 1.5 * lag);
      if (!pl.late) on_time.push_back(p);
      // A weak edge to a late vertex holds its referrer back with it; leave
      // half the late vertices unreferenced so some really arrive late.
      if (!pl.late || rng.below(2) == 0) this_round.push_back(v.id());
      plan.push_back(std::move(pl));
    }
    older.insert(older.end(), prev_round.begin(), prev_round.end());
    prev_round = std::move(this_round);
    std::sort(on_time.begin(), on_time.end());
    prev_on_time = std::move(on_time);
  }
  return plan;
}

/// Inserts the planned DAG in key order among ready vertices and checks
/// every answer after every insert. gc_depth > 0 compacts below
/// max_round() - gc_depth as the DAG grows and drops vertices that arrive
/// below the floor, as the builder does. Adds to `late_inserts` every
/// vertex inserted two or more rounds below the top of the DAG.
void run_differential(std::uint32_t n, Round rounds, Round gc_depth,
                      std::uint64_t seed, std::size_t& late_inserts) {
  SCOPED_TRACE("n=" + std::to_string(n) + " gc_depth=" +
               std::to_string(gc_depth) + " seed=" + std::to_string(seed));
  const Committee c = Committee::for_n(n);
  Xoshiro256 rng(seed);
  std::vector<Planned> pending = plan_dag(c, rounds, rng);
  Dag dag(c);
  std::size_t weak_targets_seen = 0;
  const auto settled = [&](VertexId id) {
    return dag.contains(id) || id.round < dag.compacted_floor();
  };
  while (!pending.empty()) {
    // Vertices whose round was compacted before they arrived are dropped.
    std::erase_if(pending, [&](const Planned& pl) {
      return pl.vertex.round < dag.compacted_floor();
    });
    std::size_t best = pending.size();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      const Vertex& v = pending[i].vertex;
      bool ready = true;
      for (ProcessId p : v.strong_edges) {
        ready = ready && settled(VertexId{p, v.round - 1});
      }
      for (const VertexId& w : v.weak_edges) ready = ready && settled(w);
      if (ready && (best == pending.size() || pending[i].key < pending[best].key)) {
        best = i;
      }
    }
    if (best == pending.size()) break;  // only floor-dropped parents remain
    Vertex v = std::move(pending[best].vertex);
    pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(best));
    const VertexId added = v.id();
    if (added.round + 2 <= dag.max_round()) ++late_inserts;
    dag.insert(std::move(v));
    if (gc_depth > 0 && dag.max_round() > gc_depth) {
      dag.compact_below(dag.max_round() - gc_depth);
    }
    const Round floor = dag.compacted_floor();
    const Round top = dag.max_round();

    // Weak edges of a proposal at the next round, as the builder asks.
    const Round r = top + 1;
    const std::vector<VertexId> weak = dag.weak_edge_targets(r);
    ASSERT_EQ(weak, reference_weak_targets(dag, r))
        << "weak edges of a round-" << r << " proposal after inserting {"
        << added.source << "," << added.round << "}";
    weak_targets_seen += weak.size();

    // strong_path and path from the new vertex and a few random ones.
    std::vector<VertexId> froms{added};
    for (int k = 0; k < 3; ++k) {
      const Round q = floor + rng.below(top - floor + 1);
      froms.push_back(VertexId{static_cast<ProcessId>(rng.below(n)), q});
    }
    for (const VertexId& from : froms) {
      const std::set<VertexId> strong = strong_closure(dag, from);
      const std::set<VertexId> all = closure(dag, from);
      for (Round q = 0; q <= top; ++q) {
        for (ProcessId p = 0; p < n; ++p) {
          const VertexId to{p, q};
          const bool live = q >= floor;
          ASSERT_EQ(dag.strong_path(from, to), live && strong.count(to) > 0)
              << "strong_path {" << from.source << "," << from.round
              << "} -> {" << p << "," << q << "}";
          ASSERT_EQ(dag.path(from, to), live && all.count(to) > 0)
              << "path {" << from.source << "," << from.round << "} -> {"
              << p << "," << q << "}";
        }
      }
    }

    // Commit-rule support in the new vertex's round and the top round, for
    // every target up to five rounds below.
    for (const Round sr : {added.round, top}) {
      std::vector<std::set<VertexId>> supporters;
      for (ProcessId p : dag.round_sources(sr)) {
        supporters.push_back(strong_closure(dag, VertexId{p, sr}));
      }
      for (Round q = sr > 5 ? sr - 5 : 0; q <= sr; ++q) {
        for (ProcessId p = 0; p < n; ++p) {
          const VertexId to{p, q};
          std::uint32_t expected = 0;
          if (q >= floor && q < sr) {
            for (const auto& s : supporters) expected += s.count(to) > 0;
          }
          ASSERT_EQ(dag.strong_support_in_round(sr, to), expected)
              << "support in round " << sr << " for {" << p << "," << q
              << "}";
        }
      }
    }
  }
  EXPECT_TRUE(pending.empty() || gc_depth > 0) << "insertion order wedged";
  EXPECT_GT(weak_targets_seen, 0u) << "no weak-edge target ever existed";
}

TEST(Reachability, MatchesBruteForceAtN4) {
  std::size_t late = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential(4, 24, 0, seed, late);
  }
  EXPECT_GT(late, 0u) << "no vertex arrived late";
}

TEST(Reachability, MatchesBruteForceAtN4WithCompaction) {
  std::size_t late = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    run_differential(4, 24, 4, seed, late);
  }
  EXPECT_GT(late, 0u) << "no vertex arrived late";
}

TEST(Reachability, MatchesBruteForceAtN7) {
  std::size_t late = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential(7, 16, 0, seed, late);
  }
  EXPECT_GT(late, 0u) << "no vertex arrived late";
}

TEST(Reachability, MatchesBruteForceAtN7WithCompaction) {
  std::size_t late = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    run_differential(7, 16, 5, seed, late);
  }
  EXPECT_GT(late, 0u) << "no vertex arrived late";
}

}  // namespace
}  // namespace dr::dag
