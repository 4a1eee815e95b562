// MICRO — google-benchmark microbenchmarks for the substrates: hashing
// (dispatched vs forced-scalar), frame encoding, broadcast fan-out,
// erasure coding, Merkle trees, Shamir, DAG insertion and reachability, and
// Bracha's per-frame cost after many delivered instances.
//
// --smoke also runs the Bracha state gate: the per-frame time after 1M
// delivered instances over the time after 10k must stay within
// kBrachaRatioBound, or the program exits 1.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>

#include "common/rng.hpp"
#include "crypto/merkle.hpp"
#include "crypto/reed_solomon.hpp"
#include "crypto/sha256.hpp"
#include "crypto/shamir.hpp"
#include "dag/dag.hpp"
#include "net/frame.hpp"
#include "net/payload.hpp"
#include "rbc/bracha.hpp"
#include "sim/network.hpp"
#include "sim/simulator.hpp"

namespace dr {
namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  Bytes out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(crypto::sha256_backend());
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha256Scalar(benchmark::State& state) {
  // Portable baseline: divide BM_Sha256's bytes/sec by this to get the
  // hardware-acceleration speedup on the host.
  const Bytes data = random_bytes(static_cast<std::size_t>(state.range(0)), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256_portable(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel("scalar");
}
BENCHMARK(BM_Sha256Scalar)->Arg(64)->Arg(1024)->Arg(65536);

void BM_PayloadDigestMemoized(benchmark::State& state) {
  // The single-hash discipline in one number: repeated digest() calls on a
  // shared payload cost a lookup, not a SHA-256 pass.
  const net::Payload payload(random_bytes(16'384, 5));
  (void)payload.digest();  // warm the memo
  for (auto _ : state) {
    benchmark::DoNotOptimize(payload.digest());
  }
}
BENCHMARK(BM_PayloadDigestMemoized);

void BM_FrameEncode(benchmark::State& state) {
  const Bytes payload = random_bytes(static_cast<std::size_t>(state.range(0)), 6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::encode_frame(2, net::Channel::kBracha, BytesView(payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FrameEncode)->Arg(256)->Arg(4096);

void BM_FrameEncodeHeader(benchmark::State& state) {
  // The zero-copy wire path's per-frame cost: 12 header bytes on the stack,
  // payload untouched (contrast with BM_FrameEncode's full copy).
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::encode_frame_header(2, net::Channel::kBracha, 4096));
  }
}
BENCHMARK(BM_FrameEncodeHeader);

void BM_BroadcastFanout(benchmark::State& state) {
  // One broadcast scheduled to all n processes through the simulator bus.
  // The first iteration doubles as the zero-copy regression gate: a single
  // broadcast must perform ZERO deep payload copies end to end.
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const std::size_t kPayloadSize = 16'384;
  bool checked = false;
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulator sim(42);
    sim::Network net(sim, Committee::for_n(n),
                     std::make_unique<sim::UniformDelay>(1, 1));
    std::size_t delivered = 0;
    for (ProcessId p = 0; p < n; ++p) {
      net.subscribe(p, net::Channel::kGossip,
                    [&delivered](ProcessId, const net::Payload&) { ++delivered; });
    }
    net::Payload payload(random_bytes(kPayloadSize, 7));
    state.ResumeTiming();
    net::Payload::reset_copy_counters();
    net.broadcast(0, net::Channel::kGossip, std::move(payload));
    sim.run();
    benchmark::DoNotOptimize(delivered);
    if (!checked) {
      checked = true;
      if (delivered != n || net::Payload::copy_count() != 0) {
        std::fprintf(stderr,
                     "FATAL: broadcast fan-out regressed: delivered=%zu/%u "
                     "payload copies=%llu (expected 0)\n",
                     delivered, n,
                     static_cast<unsigned long long>(net::Payload::copy_count()));
        std::abort();
      }
    }
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kPayloadSize));
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_BroadcastFanout)->Arg(4)->Arg(10)->Arg(31);

void BM_RsEncode(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Committee c = Committee::for_n(n);
  crypto::ReedSolomon rs(c.small_quorum(), n - c.small_quorum());
  const Bytes data = random_bytes(16'384, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16'384);
}
BENCHMARK(BM_RsEncode)->Arg(4)->Arg(10)->Arg(31);

void BM_RsDecodeWithErasures(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const Committee c = Committee::for_n(n);
  crypto::ReedSolomon rs(c.small_quorum(), n - c.small_quorum());
  const Bytes data = random_bytes(16'384, 3);
  auto shards = rs.encode(data);
  std::vector<std::optional<Bytes>> present(n);
  // Keep only the last k shards (all-parity worst case for the solver).
  for (std::uint32_t i = n - c.small_quorum(); i < n; ++i) present[i] = shards[i];
  for (auto _ : state) {
    auto out = rs.decode(present);
    benchmark::DoNotOptimize(out);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 16'384);
}
BENCHMARK(BM_RsDecodeWithErasures)->Arg(4)->Arg(10)->Arg(31);

void BM_MerkleBuildAndProve(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < n; ++i) leaves.push_back(random_bytes(512, i));
  for (auto _ : state) {
    crypto::MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.prove(static_cast<std::uint32_t>(n / 2)));
  }
}
BENCHMARK(BM_MerkleBuildAndProve)->Arg(4)->Arg(16)->Arg(64);

void BM_MerkleVerify(benchmark::State& state) {
  std::vector<Bytes> leaves;
  for (std::size_t i = 0; i < 32; ++i) leaves.push_back(random_bytes(512, i));
  crypto::MerkleTree tree(leaves);
  const auto proof = tree.prove(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::MerkleTree::verify(tree.root(), leaves[17], proof));
  }
}
BENCHMARK(BM_MerkleVerify);

void BM_ShamirReconstruct(benchmark::State& state) {
  const auto t = static_cast<std::uint32_t>(state.range(0));
  Xoshiro256 rng(4);
  auto shares = crypto::Shamir::split(12345, t, 3 * t + 1, rng);
  shares.resize(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Shamir::reconstruct(shares));
  }
}
BENCHMARK(BM_ShamirReconstruct)->Arg(2)->Arg(5)->Arg(11);

/// Builds a fully-connected DAG of `rounds` rounds at committee size n.
dag::Dag build_dag(std::uint32_t n, Round rounds) {
  dag::Dag d(Committee::for_n(n));
  for (Round r = 1; r <= rounds; ++r) {
    const auto prev = d.round_sources(r - 1);
    for (ProcessId p = 0; p < n; ++p) {
      dag::Vertex v;
      v.source = p;
      v.round = r;
      v.block = Bytes{1};
      v.strong_edges = prev;
      d.insert(std::move(v));
    }
  }
  return d;
}

void BM_DagInsert(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_dag(n, 40));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 40 * n);
}
BENCHMARK(BM_DagInsert)->Arg(4)->Arg(10)->Arg(31);

/// Builds `rounds` rounds at n = 4 the way a long run does: each round's
/// first n-1 vertices are on time and strongly reference the previous
/// round's on-time vertices; source n-1's vertex arrives one round late, so
/// only a weak edge (from source 0's next-but-one vertex, chosen by
/// weak_edge_targets as the builder would) ever refers to it.
dag::Dag build_deep_dag(Round rounds) {
  constexpr std::uint32_t n = 4;
  dag::Dag d(Committee::for_n(n));
  const std::vector<ProcessId> on_time{0, 1, 2};
  const auto vertex = [&](ProcessId p, Round r) {
    dag::Vertex v;
    v.source = p;
    v.round = r;
    v.block = Bytes{1};
    v.strong_edges = on_time;
    return v;
  };
  for (Round r = 1; r <= rounds; ++r) {
    for (ProcessId p : on_time) {
      dag::Vertex v = vertex(p, r);
      if (p == 0) v.weak_edges = d.weak_edge_targets(r);
      d.insert(std::move(v));
    }
    if (r >= 2) d.insert(vertex(n - 1, r - 1));  // the late vertex
  }
  return d;
}

constexpr Round kDeepRounds = 4000;

/// Per-insert cost 4,000 rounds deep (items = vertices inserted).
void BM_DagInsertDeep(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(build_deep_dag(kDeepRounds));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(4 * kDeepRounds - 1));
}
BENCHMARK(BM_DagInsertDeep);

/// One proposal's weak-edge set 4,000 rounds deep.
void BM_DagWeakEdgeTargets(benchmark::State& state) {
  dag::Dag d = build_deep_dag(kDeepRounds);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.weak_edge_targets(kDeepRounds + 1));
  }
}
BENCHMARK(BM_DagWeakEdgeTargets);

void BM_DagStrongPathQuery(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const dag::Dag d = build_dag(n, 40);
  for (auto _ : state) {
    // Deep query: top round to round 1 — a level walk over 39 rounds of
    // strong edges, O(n²) per round.
    benchmark::DoNotOptimize(
        d.strong_path(dag::VertexId{0, 40}, dag::VertexId{n - 1, 1}));
  }
}
BENCHMARK(BM_DagStrongPathQuery)->Arg(4)->Arg(10)->Arg(31);

void BM_DagCausalHistory(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const dag::Dag d = build_dag(n, 40);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        d.causal_history(dag::VertexId{0, 40}, [](dag::VertexId) {
          return false;
        }));
  }
}
BENCHMARK(BM_DagCausalHistory)->Arg(4)->Arg(10)->Arg(31);

void BM_DagCommitRuleSupport(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  const dag::Dag d = build_dag(n, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(d.strong_support_in_round(4, dag::VertexId{0, 1}));
  }
}
BENCHMARK(BM_DagCommitRuleSupport)->Arg(4)->Arg(10)->Arg(31);

/// A bus for one Bracha process alone: frames are handed straight to its
/// handler, and every frame it sends is dropped.
class SinkBus final : public net::Bus {
 public:
  explicit SinkBus(Committee committee) : committee_(committee) {}
  const Committee& committee() const override { return committee_; }
  void subscribe(ProcessId, net::Channel, Handler handler) override {
    handler_ = std::move(handler);
  }
  void send(ProcessId, ProcessId, net::Channel, net::Payload) override {}
  void broadcast(ProcessId, net::Channel, net::Payload) override {}
  void deliver(ProcessId from, const net::Payload& frame) { handler_(from, frame); }

 private:
  Committee committee_;
  Handler handler_;
};

/// Process 0 of an n=4 Bracha committee that has already r_delivered
/// `delivered` instances (rounds 1.. of every source, round-robin), fed by
/// hand-built frames (the wire format of bracha.cpp).
class BrachaFixture {
 public:
  explicit BrachaFixture(std::size_t delivered)
      : bus_(Committee::for_n(kN)), rbc_(bus_, 0) {
    rbc_.set_deliver([this](ProcessId, Round, const net::Payload&) { ++delivered_; });
    // The cheapest path to a delivery: READYs from 2f+1 = 3 processes.
    for (std::size_t k = 0; k < delivered; ++k) {
      for (ProcessId from = 1; from < kN; ++from) {
        bus_.deliver(from, frame(kReady, next_));
      }
      ++next_;
    }
  }

  /// The 2n+1 = 9 frames of each of the next `instances` broadcasts, in a
  /// correct run's order: SEND, then every ECHO, then every READY (the last
  /// READY arrives after delivery).
  std::vector<std::pair<ProcessId, net::Payload>> next_frames(std::size_t instances) {
    std::vector<std::pair<ProcessId, net::Payload>> out;
    out.reserve(instances * (2 * kN + 1));
    for (std::size_t i = 0; i < instances; ++i, ++next_) {
      out.emplace_back(source_of(next_), frame(kSend, next_));
      for (std::uint8_t type : {kEcho, kReady}) {
        for (ProcessId from = 0; from < kN; ++from) {
          out.emplace_back(from, frame(type, next_));
        }
      }
    }
    return out;
  }

  void feed(const std::vector<std::pair<ProcessId, net::Payload>>& frames) {
    for (const auto& [from, f] : frames) bus_.deliver(from, f);
  }

  std::uint64_t delivered() const { return delivered_; }
  std::uint64_t instances() const { return next_; }

 private:
  static constexpr std::uint32_t kN = 4;
  static constexpr std::uint8_t kSend = 1, kEcho = 2, kReady = 3;

  static ProcessId source_of(std::uint64_t k) { return static_cast<ProcessId>(k % kN); }

  /// Instance k is (k mod n, k / n + 1) with a 256-byte payload naming k.
  static net::Payload frame(std::uint8_t type, std::uint64_t k) {
    Bytes body(256, 0x5A);
    for (std::size_t i = 0; i < 8; ++i) body[i] = static_cast<std::uint8_t>(k >> (8 * i));
    ByteWriter w(body.size() + 20);
    w.u8(type);
    w.u32(source_of(k));
    w.u64(k / kN + 1);
    w.blob(body);
    return std::move(w).take();
  }

  SinkBus bus_;
  rbc::BrachaRbc rbc_;
  std::uint64_t next_ = 0;
  std::uint64_t delivered_ = 0;
};

/// One fixture per size, built once and shared by the benchmark and the
/// smoke gate (prefilling a million instances is the slow part).
BrachaFixture& bracha_fixture(std::size_t delivered) {
  static std::map<std::size_t, std::unique_ptr<BrachaFixture>> cache;
  auto& slot = cache[delivered];
  if (!slot) slot = std::make_unique<BrachaFixture>(delivered);
  return *slot;
}

constexpr std::size_t kBrachaBatch = 500;  // instances per timed batch

/// Nanoseconds per Bracha frame over one batch of fresh instances.
double bracha_ns_per_frame(BrachaFixture& fx) {
  const auto frames = fx.next_frames(kBrachaBatch);
  const auto start = std::chrono::steady_clock::now();
  fx.feed(frames);
  const std::chrono::duration<double, std::nano> took =
      std::chrono::steady_clock::now() - start;
  return took.count() / static_cast<double>(frames.size());
}

/// Per-frame cost with `range(0)` instances already delivered. A fixed,
/// small iteration count keeps the batches from adding many more.
void BM_BrachaFrame(benchmark::State& state) {
  BrachaFixture& fx = bracha_fixture(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    const auto frames = fx.next_frames(kBrachaBatch);
    state.ResumeTiming();
    fx.feed(frames);
    benchmark::DoNotOptimize(fx.delivered());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBrachaBatch * 9));
}
BENCHMARK(BM_BrachaFrame)->Arg(10'000)->Arg(1'000'000)->Iterations(8);

/// Bound on (ns/frame after 1M delivered) / (ns/frame after 10k), set from
/// a sweep of this gate against the ordered-map instance table it replaced
/// (see CHANGES.md).
constexpr double kBrachaRatioBound = 1.4;

/// The smoke gate: medians of alternating batches at both sizes. Returns the
/// process exit code.
int bracha_state_gate() {
  constexpr int kReps = 9;
  BrachaFixture& small = bracha_fixture(10'000);
  BrachaFixture& large = bracha_fixture(1'000'000);
  std::vector<double> at_small, at_large;
  for (int i = 0; i < kReps; ++i) {
    at_small.push_back(bracha_ns_per_frame(small));
    at_large.push_back(bracha_ns_per_frame(large));
  }
  const auto median = [](std::vector<double> v) {
    const auto mid = v.begin() + static_cast<std::ptrdiff_t>(v.size() / 2);
    std::nth_element(v.begin(), mid, v.end());
    return *mid;
  };
  const double ratio = median(at_large) / median(at_small);
  const bool all_delivered = small.delivered() == small.instances() &&
                             large.delivered() == large.instances();
  const bool ok = all_delivered && ratio <= kBrachaRatioBound;
  std::printf("bracha state gate: %.1f ns/frame after 10k delivered, %.1f after "
              "1M, ratio %.2f (bound %.2f)%s -> %s\n",
              median(at_small), median(at_large), ratio, kBrachaRatioBound,
              all_delivered ? "" : ", an instance did not deliver",
              ok ? "PASS" : "BREACH");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace dr

// Same CLI contract as the table benches: --json <path> (mapped onto the
// library's JSON reporter) and --smoke (minimal per-benchmark runtime).
int main(int argc, char** argv) {
  std::vector<std::string> args;
  args.reserve(static_cast<std::size_t>(argc) + 2);
  args.emplace_back(argv[0]);
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) {
      args.push_back(std::string("--benchmark_out=") + argv[++i]);
      args.emplace_back("--benchmark_out_format=json");
    } else if (a == "--smoke") {
      smoke = true;
      args.emplace_back("--benchmark_min_time=0.005");
    } else {
      args.push_back(a);
    }
  }
  std::vector<char*> cargv;
  cargv.reserve(args.size());
  for (auto& s : args) cargv.push_back(s.data());
  int cargc = static_cast<int>(cargv.size());
  ::benchmark::Initialize(&cargc, cargv.data());
  if (::benchmark::ReportUnrecognizedArguments(cargc, cargv.data())) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return smoke ? dr::bracha_state_gate() : 0;
}
