// Fuzzes the client ingress tier's parsers — the first code that touches
// bytes from an untrusted TCP client (DESIGN.md §13). Three surfaces, picked
// by the first input byte:
//   0: decode_client_hello — fixed-size hello from the client;
//   1: decode_server_hello — what the client trusts from a server;
//   2: decode_ingress_message — tagged SubmitBatch / SubmitReply /
//      CommitAcks payloads, including a re-encode round-trip check;
//   3: a chunked FrameDecoder(0) feed (source check off, as ingress
//      sessions run it) whose decoded kIngress payloads go through
//      decode_ingress_message, the exact server-side pipeline.
// Checked invariants: no crash / OOM on arbitrary input, every accepted
// message respects the declared bounds, and accepted messages re-encode to
// the bytes that produced them (codec is canonical).
#include <cstddef>
#include <cstdint>

#include "common/assert.hpp"
#include "fuzz_util.hpp"
#include "ingress/wire.hpp"
#include "net/frame.hpp"

namespace {

void check_message(dr::BytesView payload) {
  using namespace dr::ingress;
  const auto msg = decode_ingress_message(payload);
  if (!msg.ok()) return;
  const IngressMessage& m = msg.value();
  const int set = (m.batch.has_value() ? 1 : 0) +
                  (m.reply.has_value() ? 1 : 0) +
                  (m.acks.has_value() ? 1 : 0);
  DR_ASSERT_MSG(set == 1, "decoded message must set exactly one variant");
  dr::Bytes reencoded;
  if (m.batch) {
    DR_ASSERT_MSG(m.batch->txs.size() <= kMaxBatchTxs,
                  "decoder admitted an oversized batch");
    for (const TxSubmit& tx : m.batch->txs) {
      DR_ASSERT_MSG(tx.payload.size() <= kMaxTxBytes,
                    "decoder admitted an oversized tx payload");
    }
    reencoded = encode_submit_batch(*m.batch);
  } else if (m.reply) {
    DR_ASSERT_MSG(m.reply->entries.size() <= kMaxBatchTxs,
                  "decoder admitted an oversized reply");
    reencoded = encode_submit_reply(*m.reply);
  } else {
    DR_ASSERT_MSG(m.acks->acks.size() <= kMaxAckEntries,
                  "decoder admitted an oversized ack block");
    reencoded = encode_commit_acks(*m.acks);
  }
  DR_ASSERT_MSG(reencoded == dr::Bytes(payload.begin(), payload.end()),
                "accepted message did not re-encode canonically");
}

void feed_frames(dr::BytesView stream) {
  using namespace dr;
  net::FrameDecoder dec(0);  // ingress sessions disable the source check
  std::size_t off = 0;
  std::size_t chunk = 1;
  while (off < stream.size()) {
    const std::size_t len = std::min(chunk, stream.size() - off);
    dec.feed(stream.subspan(off, len));
    off += len;
    chunk = (chunk * 5 + 1) % 19 + 1;
    while (auto f = dec.next()) {
      if (f->channel == net::Channel::kIngress) {
        check_message(f->payload.view());
      }
    }
    if (dec.dead()) {
      DR_ASSERT_MSG(!dec.next().has_value(), "dead decoder yielded a frame");
      break;
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  using namespace dr;
  using namespace dr::ingress;
  if (size == 0) return 0;
  const std::uint8_t surface = data[0] % 4;
  const BytesView body{data + 1, size - 1};
  switch (surface) {
    case 0: {
      const auto hello = decode_client_hello(body);
      if (hello.ok()) {
        DR_ASSERT_MSG(hello.value().magic == kIngressMagic,
                      "accepted hello with wrong magic");
        DR_ASSERT_MSG(hello.value().version == kIngressVersion,
                      "accepted hello with wrong version");
      }
      break;
    }
    case 1: {
      const auto hello = decode_server_hello(body);
      if (hello.ok()) {
        DR_ASSERT_MSG(hello.value().magic == kIngressMagic,
                      "accepted server hello with wrong magic");
      }
      break;
    }
    case 2:
      check_message(body);
      break;
    default:
      feed_frames(body);
      break;
  }
  return 0;
}

namespace dr::fuzz {

std::vector<Bytes> seed_inputs() {
  using namespace dr::ingress;
  std::vector<Bytes> seeds;
  auto with_surface = [](std::uint8_t surface, const Bytes& body) {
    ByteWriter w(1 + body.size());
    w.u8(surface);
    w.raw(body);
    return std::move(w).take();
  };

  // Well-formed hellos on both surfaces.
  seeds.push_back(with_surface(0, encode_client_hello(ClientHello{})));
  ServerHello ok;
  ok.session_id = 42;
  seeds.push_back(with_surface(1, encode_server_hello(ok)));
  ServerHello full;
  full.status = HelloStatus::kFull;
  seeds.push_back(with_surface(1, encode_server_hello(full)));
  // Violations: wrong magic, wrong version, truncated.
  Bytes bad_magic = encode_client_hello(ClientHello{});
  bad_magic[0] ^= 0x01;
  seeds.push_back(with_surface(0, bad_magic));
  ClientHello v9;
  v9.version = 9;
  seeds.push_back(with_surface(0, encode_client_hello(v9)));
  Bytes short_hello = encode_client_hello(ClientHello{});
  short_hello.resize(3);
  seeds.push_back(with_surface(0, short_hello));

  // Each tagged message shape.
  SubmitBatch batch;
  batch.client_id = 7;
  batch.txs.push_back(TxSubmit{1, Bytes(32, 0xaa)});
  batch.txs.push_back(TxSubmit{2, Bytes{}});
  const Bytes batch_bytes = encode_submit_batch(batch);
  seeds.push_back(with_surface(2, batch_bytes));
  SubmitReply reply;
  reply.client_id = 7;
  reply.entries.push_back(ReplyEntry{1, SubmitStatus::kAccepted});
  reply.entries.push_back(ReplyEntry{2, SubmitStatus::kBusy});
  seeds.push_back(with_surface(2, encode_submit_reply(reply)));
  CommitAcks acks;
  acks.acks.push_back(AckEntry{7, 1, 12'345});
  seeds.push_back(with_surface(2, encode_commit_acks(acks)));
  // Violations: unknown tag, truncated batch, trailing byte, bad status.
  seeds.push_back(with_surface(2, Bytes{0x09, 0x00}));
  Bytes truncated = batch_bytes;
  truncated.resize(truncated.size() / 2);
  seeds.push_back(with_surface(2, truncated));
  Bytes trailing = batch_bytes;
  trailing.push_back(0x00);
  seeds.push_back(with_surface(2, trailing));
  Bytes bad_status = encode_submit_reply(reply);
  bad_status.back() = 0x66;
  seeds.push_back(with_surface(2, bad_status));

  // Framed ingress traffic: one batch frame, a frame pair, one truncated.
  const Bytes framed =
      net::encode_frame(0, net::Channel::kIngress, BytesView(batch_bytes));
  seeds.push_back(with_surface(3, framed));
  Bytes pair = framed;
  const Bytes acks_frame = net::encode_frame(
      0, net::Channel::kIngress, BytesView(encode_commit_acks(acks)));
  pair.insert(pair.end(), acks_frame.begin(), acks_frame.end());
  seeds.push_back(with_surface(3, pair));
  Bytes cut = framed;
  cut.resize(cut.size() - 5);
  seeds.push_back(with_surface(3, cut));

  return seeds;
}

}  // namespace dr::fuzz
