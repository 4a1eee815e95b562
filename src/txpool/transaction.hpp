// Client transactions and the block (batch) wire format. The BAB layer
// treats blocks as opaque bytes; this is the application-side contract that
// turns "blocks of transactions" (Alg. 1's v.block) into measurable
// per-transaction throughput and latency.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/expected.hpp"

namespace dr::txpool {

struct Transaction {
  std::uint64_t id = 0;           ///< client-assigned, globally unique
  /// For end-to-end latency accounting, on the submitter's clock: simulator
  /// ticks in the simulator, microseconds on the runtime.
  std::uint64_t submit_time = 0;
  Bytes payload;

  void serialize_into(ByteWriter& w) const {
    w.u64(id);
    w.u64(submit_time);
    w.blob(payload);
  }
  [[nodiscard]] static bool deserialize_from(ByteReader& in, Transaction& out) {
    out.id = in.u64();
    out.submit_time = in.u64();
    out.payload = in.blob();
    return in.ok();
  }
  std::size_t wire_size() const { return 16 + 4 + payload.size(); }
};

/// Serializes a batch of transactions into one BAB block.
Bytes encode_block(const std::vector<Transaction>& txs);

/// Parses a BAB block back into transactions. Blocks produced by other
/// components (e.g. synthetic auto-blocks) fail cleanly.
Expected<std::vector<Transaction>> decode_block(BytesView block);

}  // namespace dr::txpool
