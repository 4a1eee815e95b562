// Wire contract of the client ingress tier (DESIGN.md §13). A client session
// opens with a fixed-size hello exchange, then both directions speak
// net::Frame-framed messages on Channel::kIngress:
//   client -> server  SubmitBatch   (a batch of transactions)
//   server -> client  SubmitReply   (per-tx admission verdicts, synchronous)
//   server -> client  CommitAcks    (asynchronous commit acknowledgements)
// Like net/frame.hpp this codec is defensive: it is the first parser that
// touches bytes from an untrusted client, so every malformed input must be
// rejected crisply instead of trusted.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/expected.hpp"

namespace dr::ingress {

/// First bytes a client sends: [u32 magic][u16 version][u16 flags].
inline constexpr std::uint32_t kIngressMagic = 0x49474144;  // "DAGI" LE
inline constexpr std::uint16_t kIngressVersion = 1;
inline constexpr std::size_t kClientHelloBytes = 8;

/// Server's answer: [u32 magic][u16 version][u16 status][u64 session_id].
/// On any status other than kOk the server closes the socket right after
/// writing the hello — closing is the whole error protocol, as on the
/// node-to-node handshake.
inline constexpr std::size_t kServerHelloBytes = 16;

enum class HelloStatus : std::uint16_t {
  kOk = 0,
  kFull = 1,  ///< session table at capacity; try another node
};

struct ClientHello {
  std::uint32_t magic = kIngressMagic;
  std::uint16_t version = kIngressVersion;
  std::uint16_t flags = 0;  ///< reserved; must be 0 in v1
};

struct ServerHello {
  std::uint32_t magic = kIngressMagic;
  std::uint16_t version = kIngressVersion;
  HelloStatus status = HelloStatus::kOk;
  std::uint64_t session_id = 0;  ///< nonzero once accepted
};

Bytes encode_client_hello(const ClientHello& hello);
Bytes encode_server_hello(const ServerHello& hello);
Expected<ClientHello> decode_client_hello(BytesView data);
Expected<ServerHello> decode_server_hello(BytesView data);

/// Per-transaction admission verdict, carried in SubmitReply. kAccepted is
/// the only status that promises the tx entered the mempool; everything
/// else is explicit backpressure or dedup (DESIGN.md §13 backpressure
/// contract) and the client must not expect a CommitAck for that tx.
enum class SubmitStatus : std::uint8_t {
  kAccepted = 0,
  kBusy = 1,                ///< mempool at kMaxPending: retry later
  kDuplicatePending = 2,    ///< same digest already pending / proposed
  kDuplicateCommitted = 3,  ///< same digest in the recently-committed window
  kShardFull = 4,           ///< v1 wire value; no longer sent
  kTooLarge = 5,            ///< payload above kMaxTxBytes
};
inline constexpr std::uint8_t kSubmitStatusCount = 6;

inline constexpr bool submit_status_valid(std::uint8_t raw) {
  return raw < kSubmitStatusCount;
}
const char* to_string(SubmitStatus s);

/// Tag byte opening every kIngress frame payload.
inline constexpr std::uint8_t kSubmitBatchTag = 1;
inline constexpr std::uint8_t kSubmitReplyTag = 2;
inline constexpr std::uint8_t kCommitAcksTag = 3;

/// Bounds: a batch always fits one frame, and a 4-byte count can never make
/// the server allocate unboundedly.
inline constexpr std::size_t kMaxBatchTxs = 1024;
inline constexpr std::size_t kMaxTxBytes = 64 * 1024;
inline constexpr std::size_t kMaxAckEntries = 4096;

/// One client transaction: (client_id, tx_id) names it for ack routing, the
/// payload is the opaque bytes the application wants ordered.
struct TxSubmit {
  std::uint64_t tx_id = 0;
  Bytes payload;
};

/// [tag][u64 client_id][u32 count][{u64 tx_id}{blob payload}]*
struct SubmitBatch {
  std::uint64_t client_id = 0;
  std::vector<TxSubmit> txs;
};

struct ReplyEntry {
  std::uint64_t tx_id = 0;
  SubmitStatus status = SubmitStatus::kAccepted;
};

/// [tag][u64 client_id][u32 count][{u64 tx_id}{u8 status}]*
struct SubmitReply {
  std::uint64_t client_id = 0;
  std::vector<ReplyEntry> entries;
};

/// One committed transaction routed back to its submitting session.
/// latency_us is the server-observed submit -> a_deliver time; the client's
/// own clock gives the true client-observed figure.
struct AckEntry {
  std::uint64_t client_id = 0;
  std::uint64_t tx_id = 0;
  std::uint64_t latency_us = 0;
};

/// [tag][u32 count][{u64 client_id}{u64 tx_id}{u64 latency_us}]*
struct CommitAcks {
  std::vector<AckEntry> acks;
};

Bytes encode_submit_batch(const SubmitBatch& batch);
Bytes encode_submit_reply(const SubmitReply& reply);
Bytes encode_commit_acks(const CommitAcks& acks);

/// Discriminates on the tag byte; exactly one optional is set on success.
struct IngressMessage {
  std::optional<SubmitBatch> batch;
  std::optional<SubmitReply> reply;
  std::optional<CommitAcks> acks;
};

/// Rejects unknown tags, oversized counts/payloads, truncation, trailing
/// bytes, and invalid status codes.
Expected<IngressMessage> decode_ingress_message(BytesView data);

}  // namespace dr::ingress
