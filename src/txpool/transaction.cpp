#include "txpool/transaction.hpp"

namespace dr::txpool {

namespace {
constexpr std::uint32_t kBlockMagic = 0x7B10C35;
}  // namespace

Bytes encode_block(const std::vector<Transaction>& txs) {
  std::size_t size = 8;
  for (const Transaction& tx : txs) size += tx.wire_size();
  ByteWriter w(size);
  w.u32(kBlockMagic);
  w.u32(static_cast<std::uint32_t>(txs.size()));
  for (const Transaction& tx : txs) tx.serialize_into(w);
  return std::move(w).take();
}

Expected<std::vector<Transaction>> decode_block(BytesView block) {
  ByteReader in(block);
  if (in.u32() != kBlockMagic) {
    return Expected<std::vector<Transaction>>::failure("not a tx block");
  }
  const std::uint32_t count = in.u32();
  if (!in.ok() || count > 1u << 22) {
    return Expected<std::vector<Transaction>>::failure("absurd tx count");
  }
  std::vector<Transaction> txs;
  txs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    Transaction tx;
    if (!Transaction::deserialize_from(in, tx)) {
      return Expected<std::vector<Transaction>>::failure("truncated tx");
    }
    txs.push_back(std::move(tx));
  }
  if (!in.done()) {
    return Expected<std::vector<Transaction>>::failure("trailing bytes");
  }
  return txs;
}

}  // namespace dr::txpool
