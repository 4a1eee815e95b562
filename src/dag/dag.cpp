#include "dag/dag.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "core/contract.hpp"

namespace dr::dag {

Dag::Dag(Committee committee) : committee_(committee) {
  DR_ASSERT_MSG(committee_.valid(), "Dag: committee must satisfy n > 3f");
  rounds_.emplace_back(committee_.n);
  // Hardcoded genesis: 2f+1 empty vertices from sources 0..2f (Alg. 1).
  for (ProcessId p = 0; p < committee_.quorum(); ++p) {
    Stored s;
    s.vertex.round = 0;
    s.vertex.source = p;
    rounds_[0][p] = std::move(s);
    ++vertex_count_;
  }
}

const Dag::Stored* Dag::stored(VertexId id) const {
  if (id.round >= rounds_.size() || id.source >= committee_.n) return nullptr;
  const std::optional<Stored>& slot = rounds_[id.round][id.source];
  return slot.has_value() ? &*slot : nullptr;
}

bool Dag::contains(VertexId id) const { return stored(id) != nullptr; }

const Vertex* Dag::get(VertexId id) const {
  const Stored* s = stored(id);
  return s ? &s->vertex : nullptr;
}

std::uint32_t Dag::round_size(Round r) const {
  if (r >= rounds_.size()) return 0;
  std::uint32_t c = 0;
  for (const auto& slot : rounds_[r]) c += slot.has_value() ? 1u : 0u;
  return c;
}

std::vector<ProcessId> Dag::round_sources(Round r) const {
  std::vector<ProcessId> out;
  if (r >= rounds_.size()) return out;
  for (ProcessId p = 0; p < committee_.n; ++p) {
    if (rounds_[r][p].has_value()) out.push_back(p);
  }
  return out;
}

void Dag::insert(Vertex v) {
  DR_ASSERT_MSG(v.source < committee_.n, "vertex source out of range");
  DR_ASSERT_MSG(v.round >= 1, "only genesis lives in round 0");
  // Alg. 2 line 25 / Lemma 4: every non-genesis vertex carries >= 2f+1
  // strong edges, so any two committed leaders' strong supports intersect
  // in a correct process. A forged vertex with only 2f edges reaching this
  // point means the validate() gate upstream was bypassed.
  DR_REQUIRE(v.strong_edges.size() >= committee_.quorum(),
             "vertex inserted with fewer than 2f+1 strong edges");
  while (rounds_.size() <= v.round) rounds_.emplace_back(committee_.n);
  DR_ASSERT_MSG(!rounds_[v.round][v.source].has_value(),
                "duplicate vertex insert violates RBC Integrity");

  // Record v.round as a referrer round of every parent. A parent may
  // legitimately be absent only when its round lies below the compacted
  // floor: a WAL-restored or peer-synced vertex at the floor references
  // parents whose slots were freed by GC, and nothing below the floor is
  // ever a weak-edge target or a reachability answer again.
  const auto refer = [&](VertexId pid, const char* missing) {
    Stored* parent = stored(pid);
    if (parent == nullptr) {
      DR_ASSERT_MSG(pid.round < compacted_floor_, missing);
      return;
    }
    parent->min_referrer = std::min(parent->min_referrer, v.round);
  };
  for (ProcessId p : v.strong_edges) {
    refer(VertexId{p, v.round - 1}, "strong predecessor missing at insert");
  }
  for (const VertexId& wid : v.weak_edges) {
    refer(wid, "weak predecessor missing at insert");
  }
  const VertexId id = v.id();
  rounds_[id.round][id.source] = Stored{std::move(v)};
  if (id.round >= compacted_floor_) weak_candidates_.push_back(id);
  ++vertex_count_;
}

bool Dag::path(VertexId from, VertexId to) const {
  if (to.round < compacted_floor_ || !contains(to)) return false;
  const std::vector<VertexId> reached = causal_history(
      from, [&](VertexId id) { return id.round < to.round; });
  return std::find(reached.begin(), reached.end(), to) != reached.end();
}

bool Dag::strong_path(VertexId from, VertexId to) const {
  if (to.round < compacted_floor_) return false;  // compacted region
  if (!contains(from) || !contains(to)) return false;
  if (from == to) return true;
  if (from.round <= to.round) return false;
  // reached[p]: the round-q vertex of p has a strong path from `from`.
  std::vector<std::uint8_t> reached(committee_.n, 0);
  std::vector<std::uint8_t> below(committee_.n, 0);
  reached[from.source] = 1;
  for (Round q = from.round; q > to.round; --q) {
    std::fill(below.begin(), below.end(), 0);
    bool any = false;
    for (ProcessId p = 0; p < committee_.n; ++p) {
      if (reached[p] == 0) continue;
      for (ProcessId parent : rounds_[q][p]->vertex.strong_edges) {
        below[parent] = 1;
        any = true;
      }
    }
    if (!any) return false;
    reached.swap(below);
  }
  return reached[to.source] != 0;
}

std::uint32_t Dag::strong_support_in_round(Round r, VertexId to) const {
  if (r <= to.round || r >= rounds_.size()) return 0;
  if (to.round < compacted_floor_ || !contains(to)) return 0;
  // reached[p]: the round-q vertex of p has a strong path to `to`.
  std::vector<std::uint8_t> reached(committee_.n, 0);
  std::vector<std::uint8_t> above(committee_.n, 0);
  reached[to.source] = 1;
  std::uint32_t count = 0;
  for (Round q = to.round + 1; q <= r; ++q) {
    count = 0;
    for (ProcessId p = 0; p < committee_.n; ++p) {
      above[p] = 0;
      const std::optional<Stored>& slot = rounds_[q][p];
      if (!slot.has_value()) continue;
      for (ProcessId parent : slot->vertex.strong_edges) {
        if (reached[parent] != 0) {
          above[p] = 1;
          ++count;
          break;
        }
      }
    }
    if (count == 0) return 0;
    reached.swap(above);
  }
  return count;
}

std::vector<VertexId> Dag::weak_edge_targets(Round r) {
  DR_REQUIRE(r >= last_weak_round_,
             "weak-edge queries must come at non-decreasing proposal rounds");
  last_weak_round_ = r;
  std::vector<VertexId> out;
  // A referrer at round m <= r-1 disqualifies u for this proposal and,
  // since proposal rounds only rise, for every later one; so does one at
  // u.round+1, which every eligible proposal round exceeds.
  std::erase_if(weak_candidates_, [&](const VertexId& id) {
    const Round m = stored(id)->min_referrer;
    if (m < r || m <= id.round + 1) return true;
    if (id.round + 2 <= r) out.push_back(id);
    return false;
  });
  std::sort(out.begin(), out.end(), [](const VertexId& a, const VertexId& b) {
    return a.round != b.round ? a.round > b.round : a.source < b.source;
  });
  return out;
}

void Dag::compact_below(Round floor) {
  if (floor <= compacted_floor_) return;
  for (Round r = compacted_floor_; r < floor && r < rounds_.size(); ++r) {
    for (auto& slot_opt : rounds_[r]) {
      if (!slot_opt.has_value()) continue;
      Vertex& v = slot_opt->vertex;
      Bytes{}.swap(v.block);
      std::vector<ProcessId>{}.swap(v.strong_edges);
      std::vector<VertexId>{}.swap(v.weak_edges);
      v.wire = net::Payload{};
    }
  }
  std::erase_if(weak_candidates_,
                [&](const VertexId& id) { return id.round < floor; });
  compacted_floor_ = floor;
}

std::size_t Dag::retained_bytes() const {
  std::size_t bytes = 0;
  for (Round r = compacted_floor_; r < rounds_.size(); ++r) {
    for (const auto& slot_opt : rounds_[r]) {
      if (!slot_opt.has_value()) continue;
      const Vertex& v = slot_opt->vertex;
      bytes += v.block.capacity() +
               v.strong_edges.capacity() * sizeof(ProcessId) +
               v.weak_edges.capacity() * sizeof(VertexId) + v.wire.size();
    }
  }
  return bytes;
}

std::vector<VertexId> Dag::causal_history(
    VertexId from, const std::function<bool(VertexId)>& skip) const {
  std::vector<VertexId> out;
  if (!contains(from) || skip(from)) return out;
  // Visited bits keyed by depth below `from`: (from.round - round) * n +
  // source. Edges only point down, so the set spans the rounds the walk
  // actually reaches, not the whole run.
  std::vector<std::uint64_t> visited;
  const auto first_visit = [&](VertexId id) {
    const std::size_t bit = (from.round - id.round) * committee_.n + id.source;
    const std::size_t word = bit / 64;
    if (word >= visited.size()) {
      visited.resize(std::max(word + 1, 2 * visited.size()), 0);
    }
    const std::uint64_t mask = std::uint64_t{1} << (bit % 64);
    if ((visited[word] & mask) != 0) return false;
    visited[word] |= mask;
    return true;
  };
  first_visit(from);
  std::vector<VertexId> stack{from};
  while (!stack.empty()) {
    const VertexId id = stack.back();
    stack.pop_back();
    out.push_back(id);
    const Vertex& v = stored(id)->vertex;
    auto consider = [&](VertexId next) {
      if (!first_visit(next)) return;
      if (!contains(next) || skip(next)) return;
      stack.push_back(next);
    };
    if (id.round >= 1) {
      for (ProcessId p : v.strong_edges) consider(VertexId{p, id.round - 1});
    }
    for (const VertexId& wid : v.weak_edges) consider(wid);
  }
  return out;
}

}  // namespace dr::dag
