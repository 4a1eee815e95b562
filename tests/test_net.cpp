// Wire-transport tests: frame codec round-trips and negative cases
// (truncation, oversized length prefix, unknown channel, bad source),
// handshake validation (version/magic mismatch), inbox backpressure
// semantics, and live exchange over both real transports (in-process and
// TCP loopback). The TCP cases also poke the handshake rejection path with
// a raw socket speaking the wrong protocol.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <thread>

#include "common/rng.hpp"
#include "crypto/sha256.hpp"
#include "net/frame.hpp"
#include "net/inbox.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"

namespace dr::net {
namespace {

Bytes random_bytes(Xoshiro256& rng, std::size_t max_len) {
  Bytes out(rng.below(max_len + 1));
  for (auto& b : out) b = static_cast<std::uint8_t>(rng());
  return out;
}

TEST(FrameCodec, RoundTripWholeAndByteAtATime) {
  Xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto from = static_cast<ProcessId>(rng.below(7));
    const Channel ch = static_cast<Channel>(1 + rng.below(kChannelCount - 1));
    const Bytes payload = random_bytes(rng, 300);
    const Bytes wire = encode_frame(from, ch, BytesView(payload));
    ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

    FrameDecoder whole(7);
    whole.feed(BytesView(wire));
    auto f = whole.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->from, from);
    EXPECT_EQ(f->channel, ch);
    EXPECT_EQ(f->payload.to_bytes(), payload);
    EXPECT_FALSE(whole.next().has_value());
    EXPECT_FALSE(whole.dead());

    FrameDecoder dribble(7);
    for (std::uint8_t b : wire) dribble.feed(BytesView{&b, 1});
    f = dribble.next();
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload.to_bytes(), payload);
  }
}

TEST(FrameCodec, TruncatedFrameIsIncompleteNotDead) {
  const Bytes wire = encode_frame(2, Channel::kBracha, Bytes{1, 2, 3, 4, 5});
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    FrameDecoder d(4);
    d.feed(BytesView{wire.data(), cut});
    EXPECT_FALSE(d.next().has_value()) << "cut=" << cut;
    EXPECT_FALSE(d.dead()) << "cut=" << cut;
    // The rest of the bytes complete the frame.
    d.feed(BytesView{wire.data() + cut, wire.size() - cut});
    EXPECT_TRUE(d.next().has_value()) << "cut=" << cut;
  }
}

TEST(FrameCodec, OversizedLengthPrefixKillsDecoder) {
  ByteWriter w;
  w.u32(kMaxFramePayload + 1);
  w.u32(0);
  w.u32(static_cast<std::uint32_t>(Channel::kBracha));
  FrameDecoder d(4);
  d.feed(BytesView(w.bytes()));
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.dead());
  EXPECT_FALSE(d.error().empty());
  // A dead decoder stays dead.
  d.feed(BytesView(encode_frame(0, Channel::kBracha, Bytes{})));
  EXPECT_FALSE(d.next().has_value());
}

TEST(FrameCodec, UnknownChannelKillsDecoder) {
  ByteWriter w;
  w.u32(0);
  w.u32(1);
  w.u32(kChannelCount + 5);
  FrameDecoder d(4);
  d.feed(BytesView(w.bytes()));
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.dead());
}

TEST(FrameCodec, OutOfRangeSourceKillsDecoder) {
  const Bytes wire = encode_frame(9, Channel::kGossip, Bytes{42});
  FrameDecoder d(4);  // valid sources 0..3
  d.feed(BytesView(wire));
  EXPECT_FALSE(d.next().has_value());
  EXPECT_TRUE(d.dead());

  FrameDecoder unchecked(0);  // n = 0 disables the check
  unchecked.feed(BytesView(wire));
  EXPECT_TRUE(unchecked.next().has_value());
}

TEST(FrameCodec, DecoderSurvivesRandomGarbage) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 5'000; ++i) {
    FrameDecoder d(4);
    d.feed(BytesView(random_bytes(rng, 100)));
    while (d.next().has_value()) {
    }
    // Either dead or waiting for more bytes; never crash.
  }
}

// ---------------------------------------------------------------------------
// Payload: the refcounted immutable buffer the whole messaging stack shares.

TEST(Payload, WindowSharesBufferWithoutCopying) {
  Bytes data(1000);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(i);
  }
  const Bytes expect = data;
  Payload::reset_copy_counters();
  const Payload whole(std::move(data));
  const Payload mid = whole.window(100, 500);
  EXPECT_EQ(Payload::copy_count(), 0u);  // windows never copy
  ASSERT_EQ(mid.size(), 500u);
  EXPECT_EQ(mid.data()[0], expect[100]);
  EXPECT_EQ(mid.data(), whole.data() + 100);  // same underlying storage
}

TEST(Payload, WindowOutlivesParentPayload) {
  // The window holds a reference on the shared buffer: dropping every other
  // handle must not invalidate it (ASan would flag a dangling view here).
  Payload window;
  {
    Bytes data(256, 0x5A);
    Payload whole(std::move(data));
    window = whole.window(64, 128);
  }
  ASSERT_EQ(window.size(), 128u);
  for (std::size_t i = 0; i < window.size(); ++i) {
    ASSERT_EQ(window.data()[i], 0x5A);
  }
}

TEST(Payload, DigestIsMemoizedPerWindow) {
  Bytes data(300, 0x77);
  const Payload p(std::move(data));
  const crypto::Digest d1 = p.digest();
  const crypto::Digest d2 = p.digest();
  EXPECT_EQ(d1, d2);
  Bytes same(300, 0x77);
  EXPECT_EQ(d1, crypto::sha256(BytesView(same)));
  // A window hashes only its slice, not the parent range.
  const Payload w = p.window(10, 100);
  Bytes slice(100, 0x77);
  EXPECT_EQ(w.digest(), crypto::sha256(BytesView(slice)));
}

TEST(Payload, ToBytesCopiesAndCounts) {
  Bytes data{1, 2, 3, 4};
  const Payload p(std::move(data));
  Payload::reset_copy_counters();
  const Bytes out = p.to_bytes();
  EXPECT_EQ(out, (Bytes{1, 2, 3, 4}));
  EXPECT_EQ(Payload::copy_count(), 1u);
  EXPECT_EQ(Payload::copied_bytes(), 4u);
}

// ---------------------------------------------------------------------------
// Aliasing: once bytes enter the messaging layer, nothing the caller does to
// its own storage may change what peers decode.

TEST(InProc, SenderMutationAfterSendDoesNotReachReceiver) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  auto sender = network.endpoint(0);
  auto receiver = network.endpoint(1);
  std::mutex mu;
  std::vector<Bytes> got;
  receiver->start([&](Frame f) {
    std::lock_guard<std::mutex> lk(mu);
    got.push_back(f.payload.to_bytes());
  });
  sender->start([](Frame) {});

  Bytes block(64, 0xAA);
  sender->send(1, Channel::kGossip, std::move(block));
  // The moved-from vector is fair game for the caller: reuse and refill it.
  block.assign(64, 0xEE);
  sender->send(1, Channel::kGossip, std::move(block));
  block.assign(64, 0x00);  // mutate again after the second send

  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], Bytes(64, 0xAA));
    EXPECT_EQ(got[1], Bytes(64, 0xEE));
  }
  sender->stop();
  receiver->stop();
}

TEST(InProc, BroadcastPayloadIsSharedNotCopied) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  std::vector<std::unique_ptr<Transport>> eps;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps.push_back(network.endpoint(pid));
  }
  std::mutex mu;
  std::vector<const std::uint8_t*> seen_ptrs;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps[pid]->start([&](Frame f) {
      std::lock_guard<std::mutex> lk(mu);
      seen_ptrs.push_back(f.payload.data());
    });
  }
  const Payload shared(Bytes(512, 0x42));
  Payload::reset_copy_counters();
  for (ProcessId to = 0; to < committee.n; ++to) {
    eps[0]->send(to, Channel::kGossip, shared);
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(seen_ptrs.size(), committee.n);
    for (const std::uint8_t* p : seen_ptrs) {
      EXPECT_EQ(p, shared.data());  // every recipient sees the one buffer
    }
  }
  EXPECT_EQ(Payload::copy_count(), 0u);
  for (auto& ep : eps) ep->stop();
}

TEST(Handshake, RoundTrip) {
  Handshake hs;
  hs.pid = 3;
  hs.n = 7;
  hs.f = 2;
  const Bytes wire = encode_handshake(hs);
  ASSERT_EQ(wire.size(), kHandshakeWireBytes);
  auto back = decode_handshake(BytesView(wire));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().pid, 3u);
  EXPECT_EQ(back.value().n, 7u);
  EXPECT_EQ(back.value().f, 2u);
}

TEST(Handshake, RejectsTruncationBadMagicAndVersionMismatch) {
  Handshake hs;
  hs.pid = 1;
  hs.n = 4;
  hs.f = 1;
  const Bytes wire = encode_handshake(hs);

  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    EXPECT_FALSE(decode_handshake(BytesView{wire.data(), cut}).ok());
  }

  Bytes bad_magic = wire;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(decode_handshake(BytesView(bad_magic)).ok());

  Handshake future = hs;
  future.version = kWireVersion + 1;
  EXPECT_FALSE(decode_handshake(BytesView(encode_handshake(future))).ok());
}

/// One bounded (or self, unbounded) push of `count` empty frames from `from`.
void push_frames(Inbox& inbox, ProcessId from, int count, bool bounded = true) {
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(Frame{from, Channel::kBracha, Bytes{}});
  }
  inbox.push_batch(frames, bounded);
  EXPECT_TRUE(frames.empty());
}

TEST(InboxTest, MpscStressDeliversEverything) {
  Inbox inbox(1 << 12);
  constexpr int kProducers = 4;
  constexpr int kPerProducer = 5'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        Bytes payload(8);
        payload[0] = static_cast<std::uint8_t>(p);
        std::vector<Frame> one;
        one.push_back(Frame{static_cast<ProcessId>(p), Channel::kBracha,
                            std::move(payload)});
        inbox.push_batch(one, true);
      }
    });
  }
  std::vector<Frame> got;
  std::vector<Frame> batch;
  while (got.size() < kProducers * kPerProducer) {
    batch.clear();
    (void)inbox.pop_all(batch, std::chrono::milliseconds(10));
    for (auto& f : batch) got.push_back(std::move(f));
  }
  for (auto& t : producers) t.join();
  EXPECT_EQ(got.size(), static_cast<std::size_t>(kProducers * kPerProducer));
}

TEST(InboxTest, PerLinkFifoHoldsAcrossBatches) {
  Inbox inbox(1 << 8);
  constexpr int kProducers = 4;
  constexpr std::uint32_t kPerProducer = 4'000;
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&inbox, p] {
      Xoshiro256 rng(static_cast<std::uint64_t>(p) + 1);
      std::vector<Frame> frames;
      for (std::uint32_t seq = 0; seq < kPerProducer;) {
        const std::uint64_t size = 1 + rng.below(32);
        for (std::uint64_t k = 0; k < size && seq < kPerProducer; ++k, ++seq) {
          ByteWriter w;
          w.u32(seq);
          frames.push_back(Frame{static_cast<ProcessId>(p), Channel::kBracha,
                                 std::move(w).take()});
        }
        inbox.push_batch(frames, true);
      }
    });
  }
  std::vector<std::uint32_t> next(kProducers, 0);
  std::size_t total = 0;
  std::vector<Frame> batch;
  while (total < kProducers * kPerProducer) {
    batch.clear();
    total += inbox.pop_all(batch, std::chrono::milliseconds(10));
    for (const Frame& f : batch) {
      ByteReader r(f.payload.view());
      ASSERT_EQ(r.u32(), next[f.from]) << "link " << f.from << " reordered";
      ++next[f.from];
    }
  }
  for (auto& t : producers) t.join();
  for (std::uint32_t n : next) EXPECT_EQ(n, kPerProducer);
}

TEST(InboxTest, OverflowGraceForcesThroughInsteadOfDeadlocking) {
  Inbox inbox(2, std::chrono::milliseconds(5));
  for (int i = 0; i < 5; ++i) {
    push_frames(inbox, 0, 1);  // no consumer draining
  }
  EXPECT_EQ(inbox.size(), 5u);
  EXPECT_GE(inbox.overflows(), 3u);
}

TEST(InboxTest, FullInboxCostsABatchOneGraceAndOneOverflow) {
  constexpr auto kGrace = std::chrono::milliseconds(50);
  Inbox inbox(2, kGrace);
  push_frames(inbox, 1, 2);  // fills the inbox without waiting
  EXPECT_EQ(inbox.overflows(), 0u);
  const auto t0 = std::chrono::steady_clock::now();
  push_frames(inbox, 1, 10);
  EXPECT_GE(std::chrono::steady_clock::now() - t0, kGrace);
  EXPECT_EQ(inbox.overflows(), 1u);  // one per batch, not one per frame
  EXPECT_EQ(inbox.size(), 12u);
}

TEST(InboxTest, SelfBatchesNeverBlock) {
  Inbox inbox(1, std::chrono::seconds(60));
  push_frames(inbox, 0, 1);  // full
  const auto t0 = std::chrono::steady_clock::now();
  push_frames(inbox, 0, 100, /*bounded=*/false);
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  EXPECT_EQ(inbox.overflows(), 0u);
  EXPECT_EQ(inbox.size(), 101u);
}

TEST(InboxTest, CloseUnblocksProducerAndConsumer) {
  Inbox inbox(1);
  push_frames(inbox, 0, 1);
  std::thread closer([&inbox] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    inbox.close();
  });
  std::vector<Frame> batch;
  (void)inbox.pop_all(batch, std::chrono::milliseconds(10));  // drains one frame
  (void)inbox.pop_all(batch, std::chrono::milliseconds(10'000));  // close() wakes
  closer.join();
  push_frames(inbox, 0, 1);  // no-op after close
  EXPECT_EQ(inbox.size(), 0u);
}

TEST(InboxTest, CloseWakesABlockedBatchPush) {
  Inbox inbox(1, std::chrono::seconds(60));
  push_frames(inbox, 0, 1);  // full
  const auto t0 = std::chrono::steady_clock::now();
  std::thread producer([&inbox] { push_frames(inbox, 1, 3); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  inbox.close();
  producer.join();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(30));
  EXPECT_EQ(inbox.size(), 1u);  // the blocked batch was dropped, not queued
  EXPECT_EQ(inbox.overflows(), 0u);
}

TEST(InboxTest, PopAllReturnsEverythingQueued) {
  Inbox inbox;
  push_frames(inbox, 1, 3);
  push_frames(inbox, 2, 4);
  push_frames(inbox, 0, 2, /*bounded=*/false);
  std::vector<Frame> out;
  EXPECT_EQ(inbox.pop_all(out, std::chrono::milliseconds(0)), 9u);
  ASSERT_EQ(out.size(), 9u);
  EXPECT_EQ(out[0].from, 1u);
  EXPECT_EQ(out[3].from, 2u);
  EXPECT_EQ(out[7].from, 0u);
  EXPECT_EQ(inbox.size(), 0u);
  // Into a non-empty vector, pop_all appends.
  push_frames(inbox, 3, 2);
  EXPECT_EQ(inbox.pop_all(out, std::chrono::milliseconds(0)), 2u);
  ASSERT_EQ(out.size(), 11u);
  EXPECT_EQ(out[10].from, 3u);
  EXPECT_EQ(inbox.pop_all(out, std::chrono::milliseconds(0)), 0u);
}

TEST(InProc, EndpointsExchangeFrames) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  std::vector<std::unique_ptr<Transport>> eps;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps.push_back(network.endpoint(pid));
  }
  std::mutex mu;
  std::vector<std::vector<Frame>> got(committee.n);
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps[pid]->start([&, pid](Frame f) {
      std::lock_guard<std::mutex> lk(mu);
      got[pid].push_back(std::move(f));
    });
  }
  for (ProcessId from = 0; from < committee.n; ++from) {
    for (ProcessId to = 0; to < committee.n; ++to) {
      eps[from]->send(to, Channel::kGossip, Bytes{static_cast<std::uint8_t>(from)});
    }
  }
  // In-proc delivery is synchronous with send, so everything is in.
  {
    std::lock_guard<std::mutex> lk(mu);
    for (ProcessId pid = 0; pid < committee.n; ++pid) {
      EXPECT_EQ(got[pid].size(), committee.n);
    }
  }
  for (auto& ep : eps) ep->stop();
}

std::vector<Frame> gossip_frames(ProcessId from, int count) {
  std::vector<Frame> frames;
  for (int i = 0; i < count; ++i) {
    frames.push_back(
        Frame{from, Channel::kGossip, Bytes{static_cast<std::uint8_t>(i)}});
  }
  return frames;
}

TEST(InProc, SendBatchIsOneHandoffInOrder) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  auto sender = network.endpoint(0);
  auto receiver = network.endpoint(1);
  std::mutex mu;
  std::vector<std::vector<Frame>> calls;
  receiver->start_batched([&](std::vector<Frame>& frames) {
    std::lock_guard<std::mutex> lk(mu);
    calls.push_back(std::move(frames));
  });
  sender->start([](Frame) {});
  // The link stamps the sender, whatever the frames claim.
  std::vector<Frame> frames = gossip_frames(3, 5);
  sender->send_batch(1, frames);
  EXPECT_TRUE(frames.empty());
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(calls.size(), 1u);
    ASSERT_EQ(calls[0].size(), 5u);
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_EQ(calls[0][i].from, 0u);
      EXPECT_EQ(calls[0][i].payload.to_bytes(),
                Bytes{static_cast<std::uint8_t>(i)});
    }
  }
  sender->stop();
  receiver->stop();
}

TEST(InProc, SendBatchToStoppedPeerDropsWithoutBlocking) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  auto sender = network.endpoint(0);
  auto receiver = network.endpoint(1);
  std::atomic<int> got{0};
  receiver->start_batched([&](std::vector<Frame>& frames) {
    got.fetch_add(static_cast<int>(frames.size()));
  });
  sender->start([](Frame) {});
  receiver->stop();
  const auto t0 = std::chrono::steady_clock::now();
  std::vector<Frame> frames = gossip_frames(0, 4);
  sender->send_batch(1, frames);
  // A never-started peer would hold the sender for up to 5 s.
  EXPECT_LT(std::chrono::steady_clock::now() - t0, std::chrono::seconds(2));
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(got.load(), 0);
  sender->stop();
}

TEST(InProc, SendBatchToNeverStartedPeerWaitsForIt) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  auto sender = network.endpoint(0);
  auto receiver = network.endpoint(1);
  sender->start([](Frame) {});
  std::atomic<int> got{0};
  std::thread late([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    receiver->start_batched([&](std::vector<Frame>& frames) {
      got.fetch_add(static_cast<int>(frames.size()));
    });
  });
  std::vector<Frame> frames = gossip_frames(0, 4);
  sender->send_batch(1, frames);  // returns once the peer is up
  late.join();
  EXPECT_EQ(got.load(), 4);
  sender->stop();
  receiver->stop();
}

/// A decorator that overrides only the per-frame calls, as ChaosTransport
/// does: batches reach it through Transport's default adapters.
class PerFrameDecorator final : public Transport {
 public:
  explicit PerFrameDecorator(std::unique_ptr<Transport> inner)
      : inner_(std::move(inner)) {}
  ProcessId pid() const override { return inner_->pid(); }
  const Committee& committee() const override { return inner_->committee(); }
  void start(RecvFn recv) override {
    inner_->start([this, recv = std::move(recv)](Frame f) {
      recvs_.fetch_add(1);
      recv(std::move(f));
    });
  }
  void send(ProcessId to, Channel channel, Payload payload) override {
    sends_.fetch_add(1);
    inner_->send(to, channel, std::move(payload));
  }
  void stop() override { inner_->stop(); }
  std::atomic<int> sends_{0};
  std::atomic<int> recvs_{0};

 private:
  std::unique_ptr<Transport> inner_;
};

TEST(InProc, DecoratorsCarryBatchesThroughTheDefaultAdapters) {
  const Committee committee = Committee::for_f(1);
  InProcNetwork network(committee);
  PerFrameDecorator sender(network.endpoint(0));
  PerFrameDecorator receiver(network.endpoint(1));
  std::mutex mu;
  std::vector<Frame> got;
  int hook_calls = 0;
  receiver.start_batched([&](std::vector<Frame>& frames) {
    std::lock_guard<std::mutex> lk(mu);
    ++hook_calls;
    for (Frame& f : frames) got.push_back(std::move(f));
  });
  sender.start_batched([](std::vector<Frame>&) {});
  std::vector<Frame> frames = gossip_frames(0, 6);
  sender.send_batch(1, frames);
  EXPECT_TRUE(frames.empty());
  EXPECT_EQ(sender.sends_.load(), 6);  // one send() per frame
  EXPECT_EQ(receiver.recvs_.load(), 6);
  {
    std::lock_guard<std::mutex> lk(mu);
    EXPECT_EQ(hook_calls, 6);  // one single-frame batch per frame
    ASSERT_EQ(got.size(), 6u);
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].payload.to_bytes(), Bytes{static_cast<std::uint8_t>(i)});
    }
  }
  sender.stop();
  receiver.stop();
}

TEST(Tcp, LoopbackClusterExchangesFrames) {
  const Committee committee = Committee::for_f(1);
  const auto ports = pick_free_ports(committee.n);
  std::vector<TcpPeer> peers;
  for (auto p : ports) peers.push_back(TcpPeer{"127.0.0.1", p});

  std::vector<std::unique_ptr<TcpTransport>> eps;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps.push_back(std::make_unique<TcpTransport>(committee, pid, peers));
  }
  std::mutex mu;
  std::vector<std::vector<Frame>> got(committee.n);
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps[pid]->start([&, pid](Frame f) {
      std::lock_guard<std::mutex> lk(mu);
      got[pid].push_back(std::move(f));
    });
  }
  constexpr int kPerPair = 50;
  for (int i = 0; i < kPerPair; ++i) {
    for (ProcessId from = 0; from < committee.n; ++from) {
      for (ProcessId to = 0; to < committee.n; ++to) {
        Bytes payload{static_cast<std::uint8_t>(from),
                      static_cast<std::uint8_t>(i)};
        eps[from]->send(to, Channel::kBracha, std::move(payload));
      }
    }
  }
  const std::size_t expect = committee.n * kPerPair;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (;;) {
    {
      std::lock_guard<std::mutex> lk(mu);
      std::size_t done = 0;
      for (ProcessId pid = 0; pid < committee.n; ++pid) {
        if (got[pid].size() >= expect) ++done;
      }
      if (done == committee.n) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "tcp exchange stalled";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& ep : eps) ep->stop();
  {
    std::lock_guard<std::mutex> lk(mu);
    for (ProcessId pid = 0; pid < committee.n; ++pid) {
      EXPECT_EQ(got[pid].size(), expect);
      for (const Frame& f : got[pid]) {
        EXPECT_EQ(f.payload.data()[0], f.from);
      }
    }
  }
}

TEST(Tcp, SenderMutationAfterSendDoesNotReachReceiver) {
  // The TCP writer queues the payload by reference (shared buffer) and
  // writes it from another thread later; the caller reusing its vector in
  // the meantime must not corrupt the frame on the wire.
  const Committee committee = Committee::for_f(1);
  const auto ports = pick_free_ports(committee.n);
  std::vector<TcpPeer> peers;
  for (auto p : ports) peers.push_back(TcpPeer{"127.0.0.1", p});

  std::vector<std::unique_ptr<TcpTransport>> eps;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps.push_back(std::make_unique<TcpTransport>(committee, pid, peers));
  }
  std::mutex mu;
  std::vector<Bytes> got;
  for (ProcessId pid = 0; pid < committee.n; ++pid) {
    eps[pid]->start([&, pid](Frame f) {
      if (pid != 1) return;
      std::lock_guard<std::mutex> lk(mu);
      got.push_back(f.payload.to_bytes());
    });
  }
  constexpr std::size_t kFrames = 200;
  Bytes scratch;
  for (std::size_t i = 0; i < kFrames; ++i) {
    scratch.assign(256, static_cast<std::uint8_t>(i));
    eps[0]->send(1, Channel::kBracha, std::move(scratch));
    // Immediately reuse the (moved-from) vector with conflicting content
    // while the writer thread may still be draining the queue.
    scratch.assign(256, 0xFF);
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (true) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (got.size() >= kFrames) break;
    }
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "tcp exchange stalled";
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (auto& ep : eps) ep->stop();
  {
    std::lock_guard<std::mutex> lk(mu);
    ASSERT_EQ(got.size(), kFrames);
    for (std::size_t i = 0; i < kFrames; ++i) {
      EXPECT_EQ(got[i], Bytes(256, static_cast<std::uint8_t>(i))) << "frame " << i;
    }
  }
}

TEST(Tcp, RejectsBadHandshake) {
  const Committee committee = Committee::for_f(1);
  const auto ports = pick_free_ports(committee.n);
  std::vector<TcpPeer> peers;
  for (auto p : ports) peers.push_back(TcpPeer{"127.0.0.1", p});

  TcpTransport ep(committee, 0, peers);
  ep.start([](Frame) {});

  // Raw client speaking a future protocol version: the handshake must be
  // rejected and counted, and the link must be closed by the server.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ports[0]);
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  Handshake bad;
  bad.version = kWireVersion + 7;
  bad.pid = 1;
  bad.n = committee.n;
  bad.f = committee.f;
  const Bytes wire = encode_handshake(bad);
  ASSERT_EQ(::send(fd, wire.data(), wire.size(), 0),
            static_cast<ssize_t>(wire.size()));

  // The server closes the connection: recv sees EOF (or reset).
  std::uint8_t buf[16];
  const ssize_t r = ::recv(fd, buf, sizeof(buf), 0);
  EXPECT_LE(r, 0);
  ::close(fd);

  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (ep.protocol_errors() == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(ep.protocol_errors(), 1u);
  ep.stop();
}

}  // namespace
}  // namespace dr::net
