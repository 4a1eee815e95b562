// Systematic Reed–Solomon erasure code over GF(256) using a Cauchy matrix
// for the parity rows. (k, m): k data shards, m parity shards, any k of the
// k+m shards reconstruct the data. AVID uses (f+1, 2f) so that f+1 echoed
// fragments suffice to rebuild a broadcast payload.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "common/expected.hpp"

namespace dr::crypto {

class ReedSolomon {
 public:
  /// k data shards + m parity shards; requires 1 <= k, 0 <= m, k + m <= 255.
  ReedSolomon(std::uint32_t k, std::uint32_t m);

  std::uint32_t data_shards() const { return k_; }

  /// Splits `data` into k equal shards (zero-padded) and appends m parity
  /// shards. Shard size = ceil((|data|+8) / k); an 8-byte length header is
  /// embedded so decode can strip padding exactly.
  std::vector<Bytes> encode(BytesView data) const;

  /// Reconstructs the original byte string from any >= k shards.
  /// `shards[i]` empty (or nullopt) means shard i is missing.
  Expected<Bytes> decode(const std::vector<std::optional<Bytes>>& shards) const;

  /// Re-derives one missing shard (by index) from any k present shards;
  /// used to check a received fragment against a Merkle root cheaply.
  Expected<Bytes> reconstruct_shard(
      const std::vector<std::optional<Bytes>>& shards, std::uint32_t index) const;

 private:
  /// Row `row` of the encoding matrix (identity on top, Cauchy below).
  std::uint8_t matrix_at(std::uint32_t row, std::uint32_t col) const;

  /// Solves for the data shards given k present shard rows. Returns the k
  /// recovered data shards.
  Expected<std::vector<Bytes>> solve_data(
      const std::vector<std::optional<Bytes>>& shards) const;

  std::uint32_t k_;
  std::uint32_t m_;
};

}  // namespace dr::crypto
