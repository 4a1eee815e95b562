// Unit tests: common kernel (serialization, RNG, quorum math, Expected, the
// delivered-round and vote sets).
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>

#include "common/bytes.hpp"
#include "common/expected.hpp"
#include "common/rng.hpp"
#include "common/round_set.hpp"
#include "common/types.hpp"
#include "common/vote_set.hpp"

namespace dr {
namespace {

TEST(Bytes, WriterReaderRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.blob(std::string_view{"hello"});
  Bytes raw = std::move(w).take();

  ByteReader r(raw);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  Bytes blob = r.blob();
  EXPECT_EQ(std::string(blob.begin(), blob.end()), "hello");
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ReaderUnderflowSetsFailure) {
  ByteWriter w;
  w.u16(7);
  Bytes raw = std::move(w).take();
  ByteReader r(raw);
  (void)r.u64();  // too large
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  // Further reads stay failed and return zero.
  EXPECT_EQ(r.u32(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, BlobWithTruncatedLengthFails) {
  ByteWriter w;
  w.u32(1000);  // claims 1000 bytes, provides none
  Bytes raw = std::move(w).take();
  ByteReader r(raw);
  Bytes blob = r.blob();
  EXPECT_TRUE(blob.empty());
  EXPECT_FALSE(r.ok());
}

TEST(Bytes, EmptyBlobRoundTrip) {
  ByteWriter w;
  w.blob(BytesView{});
  Bytes raw = std::move(w).take();
  ByteReader r(raw);
  EXPECT_TRUE(r.blob().empty());
  EXPECT_TRUE(r.done());
}

TEST(Bytes, ToHex) {
  const Bytes b{0x00, 0xff, 0x1a};
  EXPECT_EQ(to_hex(b), "00ff1a");
}

TEST(Rng, DeterministicAcrossInstances) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) differing += a() != b() ? 1 : 0;
  EXPECT_GT(differing, 5);
}

TEST(Rng, BelowIsInRangeAndCoversRange) {
  Xoshiro256 rng(7);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint64_t v = rng.below(10);
    ASSERT_LT(v, 10u);
    seen[v]++;
  }
  for (int count : seen) EXPECT_GT(count, 700);  // roughly uniform
}

TEST(Rng, UniformInUnitInterval) {
  Xoshiro256 rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, ForkedStreamsAreIndependent) {
  Xoshiro256 parent(5);
  Xoshiro256 c1 = parent.fork(1);
  Xoshiro256 c2 = parent.fork(2);
  int differing = 0;
  for (int i = 0; i < 10; ++i) differing += c1() != c2() ? 1 : 0;
  EXPECT_GT(differing, 5);
}

TEST(Committee, QuorumArithmetic) {
  const Committee c = Committee::for_f(1);
  EXPECT_EQ(c.n, 4u);
  EXPECT_EQ(c.quorum(), 3u);
  EXPECT_EQ(c.small_quorum(), 2u);
  EXPECT_TRUE(c.valid());

  const Committee c10 = Committee::for_n(10);
  EXPECT_EQ(c10.f, 3u);
  EXPECT_TRUE(c10.valid());

  const Committee bad{3, 1};
  EXPECT_FALSE(bad.valid());
}

TEST(Waves, RoundWaveMapping) {
  // round(w, k) = 4(w-1) + k.
  EXPECT_EQ(wave_round(1, 1), 1u);
  EXPECT_EQ(wave_round(1, 4), 4u);
  EXPECT_EQ(wave_round(2, 1), 5u);
  EXPECT_EQ(wave_round(3, 4), 12u);
  for (Wave w = 1; w <= 20; ++w) {
    for (Round k = 1; k <= 4; ++k) {
      EXPECT_EQ(wave_of_round(wave_round(w, k)), w);
    }
  }
}

TEST(Expected, ValueAndFailurePaths) {
  Expected<int> ok(7);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 7);

  auto bad = Expected<int>::failure("nope");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), "nope");
}

TEST(RoundSet, RoundsAfterALongSilenceAreStoredDensely) {
  // A source silent for more than 4,096 rounds: the rounds after the gap
  // open one new dense run instead of one sparse entry each.
  RoundSet set;
  for (Round r = 1; r <= 1'000; ++r) EXPECT_TRUE(set.insert(r));
  for (Round r = 6'001; r <= 106'000; ++r) EXPECT_TRUE(set.insert(r));
  EXPECT_EQ(set.runs(), 2u);
  for (Round r = 0; r <= 107'000; ++r) {
    const bool in = (r >= 1 && r <= 1'000) || (r >= 6'001 && r <= 106'000);
    ASSERT_EQ(set.contains(r), in) << "round " << r;
  }
  EXPECT_FALSE(set.insert(6'001));
  EXPECT_FALSE(set.insert(1'000));
}

TEST(RoundSet, ExtremeRoundsCostOneRunEach) {
  const Round kFar = Round{1} << 40;
  const Round kTop = ~Round{0};
  RoundSet set;
  for (Round r : {kTop, kFar, Round{0}, Round{1}, kFar + 1, kTop - 1}) {
    EXPECT_TRUE(set.insert(r));
  }
  EXPECT_EQ(set.runs(), 3u);
  for (Round r : {kTop, kFar, Round{0}, Round{1}, kFar + 1, kTop - 1}) {
    EXPECT_TRUE(set.contains(r));
    EXPECT_FALSE(set.insert(r));
  }
  EXPECT_FALSE(set.contains(kFar - 1));
  EXPECT_FALSE(set.contains(kTop - 2));
  set.erase_below(kTop);
  EXPECT_EQ(set.runs(), 1u);
  EXPECT_TRUE(set.contains(kTop));
  EXPECT_FALSE(set.contains(kTop - 1));
  EXPECT_FALSE(set.contains(kFar));
}

TEST(RoundSet, EraseBelowKeepsTheFloorAndWhatIsAbove) {
  RoundSet set;
  for (Round r = 0; r <= 300; ++r) set.insert(r);
  set.erase_below(130);
  EXPECT_FALSE(set.contains(0));
  EXPECT_FALSE(set.contains(129));
  EXPECT_TRUE(set.contains(130));
  EXPECT_TRUE(set.contains(300));
  EXPECT_FALSE(set.contains(301));
  // A round below the floor may be inserted again (the set forgets it).
  EXPECT_TRUE(set.insert(5));
  EXPECT_FALSE(set.insert(130));
}

TEST(RoundSet, MatchesAStdSetReference) {
  // Random inserts around a drifting base with occasional jumps, extreme
  // rounds, and erase_below at random floors, checked operation by
  // operation against std::set.
  const Round kExtremes[] = {0, 1, 63, 64, Round{1} << 40, (Round{1} << 40) + 64,
                             ~Round{0} - 64, ~Round{0} - 1, ~Round{0}};
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Xoshiro256 rng(seed);
    RoundSet set;
    std::set<Round> ref;
    Round base = rng.below(10'000);
    auto probe = [&](Round r) {
      ASSERT_EQ(set.contains(r), ref.count(r) != 0)
          << "seed " << seed << " round " << r;
    };
    for (int op = 0; op < 4'000; ++op) {
      const std::uint64_t kind = rng.below(100);
      Round r = 0;
      if (kind < 2) {
        base += 4'096 + rng.below(50'000);  // a long silence
        r = base;
      } else if (kind < 5) {
        r = kExtremes[rng.below(std::size(kExtremes))];
      } else if (kind < 7) {
        const Round floor = rng.below(3) == 0
                                ? kExtremes[rng.below(std::size(kExtremes))]
                                : base - std::min<Round>(base, rng.below(300));
        set.erase_below(floor);
        ref.erase(ref.begin(), ref.lower_bound(floor));
        for (Round d = 0; d < 3; ++d) {
          probe(floor - std::min(floor, d));
          probe(floor + d);
        }
        continue;
      } else {
        if (rng.below(4) == 0) base += rng.below(8);
        r = base + rng.below(200) - std::min<Round>(base, rng.below(100));
      }
      ASSERT_EQ(set.insert(r), ref.insert(r).second)
          << "seed " << seed << " round " << r;
      probe(r);
      probe(r + 1);
      probe(r - std::min<Round>(r, 64));
      probe(base + rng.below(5'000));
    }
    for (Round r : ref) probe(r);
    for (Round r : kExtremes) probe(r);
  }
}

TEST(VoteSet, AddReportsWhetherTheVoteIsNewAndCountsItOnce) {
  VoteSet votes;
  EXPECT_TRUE(votes.add(3));
  EXPECT_FALSE(votes.add(3));
  EXPECT_TRUE(votes.add(64));  // first heap word
  EXPECT_TRUE(votes.add(200));
  EXPECT_FALSE(votes.add(64));
  EXPECT_FALSE(votes.add(200));
  EXPECT_TRUE(votes.add(0));
  EXPECT_EQ(votes.count(), 4u);
}

}  // namespace
}  // namespace dr
