// Fuzzes the stream FrameDecoder — the first parser that touches bytes from
// another machine. Checked invariants:
//   * no crash / OOM on arbitrary chunked input;
//   * every popped frame respects the header contract (payload bound, valid
//     channel, in-range source);
//   * the dead state is absorbing: after a protocol violation no further
//     frames appear (resync inside a corrupt length-prefixed stream would be
//     a framing-confusion bug, the classic transport-layer equivocation
//     vector).
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "crypto/sha256.hpp"
#include "fuzz_util.hpp"
#include "net/frame.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace dr;
  // First byte picks the committee bound; the rest is the byte stream.
  if (size == 0) return 0;
  const std::uint32_t n = data[0] % 8;  // 0 disables the source check
  BytesView stream{data + 1, size - 1};

  // SHA-256 backend differential: the dispatched implementation (SHA-NI
  // where the CPU has it) must be bit-identical to the portable compressor
  // on every fuzz input, not just the property-test distribution.
  DR_ASSERT_MSG(crypto::sha256(stream) == crypto::sha256_portable(stream),
                "SHA-256 backends diverged");

  net::FrameDecoder dec(n);
  std::size_t popped = 0;
  // Feed in irregular chunk sizes derived from the input itself, so the
  // fuzzer explores header/payload splits across feed() boundaries.
  std::size_t off = 0;
  std::size_t chunk = 1;
  while (off < stream.size()) {
    const std::size_t len = std::min(chunk, stream.size() - off);
    dec.feed(stream.subspan(off, len));
    off += len;
    chunk = (chunk * 7 + 3) % 23 + 1;
    while (auto f = dec.next()) {
      ++popped;
      DR_ASSERT_MSG(f->payload.size() <= net::kMaxFramePayload,
                    "decoder emitted an oversized payload");
      DR_ASSERT_MSG(net::channel_valid(static_cast<std::uint32_t>(f->channel)),
                    "decoder emitted an invalid channel");
      DR_ASSERT_MSG(n == 0 || f->from < n,
                    "decoder emitted an out-of-range source");
    }
    if (dec.dead()) {
      // Absorbing dead state: keep feeding, nothing may come out.
      dec.feed(stream.subspan(0, std::min<std::size_t>(stream.size(), 64)));
      DR_ASSERT_MSG(!dec.next().has_value(), "dead decoder yielded a frame");
      DR_ASSERT_MSG(!dec.error().empty(), "dead decoder carries no reason");
      break;
    }
  }
  (void)popped;
  return 0;
}

namespace dr::fuzz {

std::vector<Bytes> seed_inputs() {
  using namespace dr::net;
  std::vector<Bytes> seeds;
  auto with_n = [](std::uint8_t n, const Bytes& stream) {
    ByteWriter w(1 + stream.size());
    w.u8(n);
    w.raw(stream);
    return std::move(w).take();
  };
  // One well-formed frame per channel.
  for (std::uint32_t ch = 1; channel_valid(ch); ++ch) {
    seeds.push_back(with_n(
        4, encode_frame(ch % 4, static_cast<Channel>(ch),
                        Bytes{0xde, 0xad, 0xbe, 0xef})));
  }
  // Two frames back-to-back, and one truncated mid-payload.
  Bytes two = encode_frame(1, Channel::kBracha, Bytes(32, 0x11));
  const Bytes second = encode_frame(2, Channel::kCoin, Bytes(5, 0x22));
  two.insert(two.end(), second.begin(), second.end());
  seeds.push_back(with_n(4, two));
  Bytes truncated = encode_frame(0, Channel::kAvid, Bytes(64, 0x33));
  truncated.resize(truncated.size() - 17);
  seeds.push_back(with_n(4, truncated));
  // Protocol violations: oversized length prefix, unknown channel, bad
  // source — each must flip the decoder dead.
  {
    ByteWriter w(16);
    w.u32(kMaxFramePayload + 1);
    w.u32(0);
    w.u32(0);
    seeds.push_back(with_n(4, std::move(w).take()));
  }
  {
    ByteWriter w(16);
    w.u32(4);
    w.u32(0);
    w.u32(0xffu);  // no such channel
    w.u32(0);
    seeds.push_back(with_n(4, std::move(w).take()));
  }
  seeds.push_back(with_n(2, encode_frame(7, Channel::kBracha, Bytes(3, 1))));
  return seeds;
}

}  // namespace dr::fuzz
