// Tests: transaction blocks and the mempool's block-level FIFO semantics.
// The admission pipeline is covered by the Mempool tests in
// test_ingress.cpp.
#include <gtest/gtest.h>

#include "ingress/mempool.hpp"
#include "txpool/transaction.hpp"

namespace dr::txpool {
namespace {

Transaction make_tx(std::uint64_t id, std::size_t size = 8) {
  Transaction tx;
  tx.id = id;
  tx.submit_time = id * 10;
  tx.payload.assign(size, static_cast<std::uint8_t>(id));
  return tx;
}

TEST(TxBlock, EncodeDecodeRoundTrip) {
  std::vector<Transaction> txs;
  for (std::uint64_t i = 1; i <= 5; ++i) txs.push_back(make_tx(i, 16 + i));
  const Bytes block = encode_block(txs);
  auto back = decode_block(block);
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(back.value()[i].id, txs[i].id);
    EXPECT_EQ(back.value()[i].submit_time, txs[i].submit_time);
    EXPECT_EQ(back.value()[i].payload, txs[i].payload);
  }
}

TEST(TxBlock, EmptyBlockRoundTrips) {
  const Bytes block = encode_block({});
  auto back = decode_block(block);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back.value().empty());
}

TEST(TxBlock, RejectsForeignBytes) {
  EXPECT_FALSE(decode_block(Bytes{}).ok());
  EXPECT_FALSE(decode_block(Bytes{1, 2, 3, 4}).ok());
  EXPECT_FALSE(decode_block(Bytes(64, 0xAB)).ok());  // auto-block filler
  // Truncated real block.
  Bytes block = encode_block({make_tx(1)});
  block.resize(block.size() - 3);
  EXPECT_FALSE(decode_block(block).ok());
}

using ingress::SubmitStatus;
using ingress::TxOrigin;

std::vector<std::uint64_t> ids_of(const std::optional<Bytes>& block) {
  std::vector<std::uint64_t> ids;
  if (!block.has_value()) return ids;
  auto txs = decode_block(*block);
  EXPECT_TRUE(txs.ok());
  if (!txs.ok()) return ids;
  for (const auto& tx : txs.value()) ids.push_back(tx.id);
  return ids;
}

TEST(Mempool, FifoBatchingAndDedup) {
  ingress::Mempool pool;
  for (std::uint64_t i = 1; i <= 10; ++i) {
    EXPECT_EQ(pool.submit(make_tx(i), TxOrigin{}), SubmitStatus::kAccepted);
  }
  EXPECT_EQ(pool.submit(make_tx(3), TxOrigin{}),
            SubmitStatus::kDuplicatePending);
  EXPECT_EQ(pool.stats().rejected_dup_pending, 1u);
  EXPECT_EQ(pool.pending(), 10u);

  EXPECT_EQ(ids_of(pool.drain_block(4)),
            (std::vector<std::uint64_t>{1, 2, 3, 4}));  // FIFO
  EXPECT_EQ(pool.pending(), 6u);
}

TEST(Mempool, DeliveredTransactionsAreNotReproposed) {
  ingress::Mempool pool;
  for (std::uint64_t i = 1; i <= 6; ++i) {
    ASSERT_EQ(pool.submit(make_tx(i), TxOrigin{}), SubmitStatus::kAccepted);
  }
  // Transactions 2 and 3 get ordered via another process's block.
  EXPECT_EQ(pool.commit_block(encode_block({make_tx(2), make_tx(3)})).size(),
            2u);
  EXPECT_EQ(ids_of(pool.drain_block(10)),
            (std::vector<std::uint64_t>{1, 4, 5, 6}));
  // And a delivered id cannot be resubmitted either.
  EXPECT_EQ(pool.submit(make_tx(2), TxOrigin{}),
            SubmitStatus::kDuplicateCommitted);
}

TEST(Mempool, EmptyPoolYieldsEmptyBlock) {
  ingress::Mempool pool;
  EXPECT_FALSE(pool.drain_block(5).has_value());
  ASSERT_EQ(pool.submit(make_tx(1), TxOrigin{}), SubmitStatus::kAccepted);
  (void)pool.commit_block(encode_block({make_tx(1)}));
  EXPECT_FALSE(pool.drain_block(5).has_value());  // everything delivered
}

}  // namespace
}  // namespace dr::txpool
