// Fuzz-style robustness tests: every wire-format parser and every protocol
// component's message handler is fed random, truncated, and bit-flipped
// bytes. Nothing may crash, and honest traffic must keep flowing around the
// garbage (a Byzantine process can always spray junk).
#include <gtest/gtest.h>

#include "baselines/vaba/vaba.hpp"
#include "coin/dealer.hpp"
#include "coin/threshold_coin.hpp"
#include "core/system.hpp"
#include "crypto/merkle.hpp"
#include "dag/vertex.hpp"
#include "net/frame.hpp"
#include "txpool/transaction.hpp"
#include "sim/network.hpp"

namespace dr {
namespace {

Bytes random_bytes(Xoshiro256& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(Fuzz, VertexDeserializerNeverCrashes) {
  Xoshiro256 rng(1);
  int parsed = 0;
  for (int i = 0; i < 20'000; ++i) {
    const Bytes junk = random_bytes(rng, 200);
    auto result = dag::Vertex::deserialize(junk);
    parsed += result.ok() ? 1 : 0;
  }
  // Random bytes occasionally parse (tiny valid encodings exist); what
  // matters is no crash and no absurd acceptance rate.
  EXPECT_LT(parsed, 2'000);
}

TEST(Fuzz, VertexBitflipsRoundTripOrFail) {
  Xoshiro256 rng(2);
  dag::Vertex v;
  v.block = random_bytes(rng, 50);
  v.strong_edges = {0, 1, 2};
  v.weak_edges = {dag::VertexId{3, 1}};
  const Bytes wire = v.serialize();
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    Bytes mutated = wire;
    mutated[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    auto result = dag::Vertex::deserialize(mutated);  // must not crash
    (void)result;
  }
  SUCCEED();
}

TEST(Fuzz, VertexTruncationsNeverCrashAndRoundTrip) {
  Xoshiro256 rng(7);
  dag::Vertex v;
  v.round = 9;
  v.source = 2;
  v.block = random_bytes(rng, 80);
  v.strong_edges = {0, 1, 3};
  v.weak_edges = {dag::VertexId{1, 4}};
  const Bytes wire = v.serialize();
  // Every proper prefix must be rejected cleanly...
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    auto result = dag::Vertex::deserialize(BytesView{wire.data(), cut});
    EXPECT_FALSE(result.ok()) << "truncation at " << cut << " parsed";
  }
  // ...and the full encoding round-trips.
  auto full = dag::Vertex::deserialize(wire);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().block, v.block);
  EXPECT_EQ(full.value().strong_edges, v.strong_edges);
}

TEST(Fuzz, FrameDecoderRandomChunkStreamsNeverCrash) {
  Xoshiro256 rng(8);
  for (int stream = 0; stream < 500; ++stream) {
    net::FrameDecoder dec(4);
    // Interleave valid frames with garbage chunks in one byte stream.
    for (int step = 0; step < 10 && !dec.dead(); ++step) {
      if (rng.below(2) == 0) {
        dec.feed(BytesView(net::encode_frame(static_cast<ProcessId>(rng.below(4)),
                                             net::Channel::kBracha,
                                             random_bytes(rng, 60))));
      } else {
        dec.feed(BytesView(random_bytes(rng, 60)));
      }
      while (dec.next().has_value()) {
      }
    }
  }
  SUCCEED();
}

TEST(Fuzz, MerkleProofDeserializerNeverCrashes) {
  Xoshiro256 rng(3);
  for (int i = 0; i < 20'000; ++i) {
    const Bytes junk = random_bytes(rng, 150);
    ByteReader in(junk);
    crypto::MerkleProof proof;
    (void)crypto::MerkleProof::deserialize(in, proof);
  }
  SUCCEED();
}

TEST(Fuzz, TxBlockDecoderNeverCrashes) {
  Xoshiro256 rng(4);
  for (int i = 0; i < 20'000; ++i) {
    const Bytes junk = random_bytes(rng, 300);
    (void)txpool::decode_block(junk);
  }
  SUCCEED();
}

/// Sprays random bytes at every protocol channel of a live DAG-Rider
/// deployment from a Byzantine process, then checks progress + safety.
TEST(Fuzz, ProtocolChannelsSurviveGarbageSpray) {
  core::SystemConfig cfg;
  cfg.committee = Committee::for_f(1);
  cfg.seed = 99;
  cfg.rbc_kind = rbc::RbcKind::kBracha;
  cfg.builder.auto_blocks = true;
  cfg.builder.auto_block_size = 8;
  cfg.faults.assign(4, core::FaultKind::kNone);
  cfg.faults[3] = core::FaultKind::kMute;  // our garbage cannon
  core::System sys(std::move(cfg));
  sys.start();

  Xoshiro256 rng(5);
  const sim::Channel channels[] = {sim::Channel::kBracha, sim::Channel::kCoin,
                                   sim::Channel::kAvid, sim::Channel::kGossip,
                                   sim::Channel::kOracle};
  for (std::uint64_t burst = 0; burst < 40; ++burst) {
    sys.simulator().schedule(burst * 50, [&sys, &rng, &channels] {
      for (sim::Channel ch : channels) {
        for (ProcessId to = 0; to < 3; ++to) {
          Bytes junk = random_bytes(rng, 120);
          sys.network().send(3, to, ch, std::move(junk));
        }
      }
    });
  }
  ASSERT_TRUE(sys.run_until_delivered(24));
  EXPECT_TRUE(core::prefix_consistent(sys));
}

/// Same spray against the baselines' channels.
TEST(Fuzz, BaselineChannelsSurviveGarbageSpray) {
  const Committee c = Committee::for_f(1);
  sim::Simulator sim(6);
  sim::Network net(sim, c, std::make_unique<sim::UniformDelay>(1, 30));
  coin::CoinDealer dealer(7, c);
  std::vector<std::unique_ptr<coin::ThresholdCoin>> coins;
  std::vector<std::unique_ptr<baselines::Vaba>> vabas;
  std::vector<int> vaba_decided(4, 0);
  for (ProcessId p = 0; p < 4; ++p) {
    coins.push_back(std::make_unique<coin::ThresholdCoin>(
        net, coin::ProcessCoinKey(&dealer, p)));
    vabas.push_back(std::make_unique<baselines::Vaba>(
        net, p, *coins[p],
        [&vaba_decided, p](SlotId, ProcessId, const Bytes&) {
          vaba_decided[p] = 1;
        }));
  }
  net.corrupt(3);
  Xoshiro256 rng(8);
  for (ProcessId p = 0; p < 3; ++p) {
    vabas[p]->propose(1, Bytes(1, static_cast<std::uint8_t>(p)));
  }
  for (int i = 0; i < 200; ++i) {
    net.send(3, static_cast<ProcessId>(i % 3), sim::Channel::kVaba,
             random_bytes(rng, 100));
    net.send(3, static_cast<ProcessId>(i % 3), sim::Channel::kCoin,
             random_bytes(rng, 100));
  }
  sim.run();
  for (ProcessId p = 0; p < 3; ++p) {
    EXPECT_EQ(vaba_decided[p], 1) << "vaba stalled at p" << p;
  }
}

}  // namespace
}  // namespace dr
