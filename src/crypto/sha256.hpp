// SHA-256 implemented from scratch (FIPS 180-4). Used for vertex digests,
// Merkle trees in the AVID broadcast, and as the PRF behind the coin dealer.
//
// The block compression has two backends: a portable scalar implementation
// and an x86 SHA-NI one (sha256_x86.cpp). One-shot and incremental hashing
// dispatch at runtime via __builtin_cpu_supports; the scalar path stays
// reachable everywhere through sha256_portable() and the
// DAGRIDER_SHA256_SCALAR=1 environment override, and the test suite checks
// the two backends bit-identical over random inputs and fuzz corpora.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.hpp"

namespace dr::crypto {

inline constexpr std::size_t kDigestSize = 32;
using Digest = std::array<std::uint8_t, kDigestSize>;

namespace detail {
/// Compresses `nblocks` consecutive 64-byte blocks into `state` (the eight
/// working words of FIPS 180-4 §6.2).
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* blocks,
                            std::size_t nblocks);
void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks);
/// The backend sha256()/Sha256{} use: SHA-NI when the CPU has it and
/// DAGRIDER_SHA256_SCALAR is unset, scalar otherwise. Resolved once.
CompressFn dispatched_compress();
}  // namespace detail

/// Name of the backend dispatched_compress() resolved to ("sha-ni" or
/// "scalar") — surfaced by bench_micro and the perf-smoke CI job.
const char* sha256_backend();

/// Incremental SHA-256 context.
class Sha256 {
 public:
  enum class Backend {
    kAuto,    ///< runtime-dispatched (SHA-NI where available)
    kScalar,  ///< portable path, for cross-checking the dispatched backend
  };

  Sha256() : Sha256(Backend::kAuto) {}
  explicit Sha256(Backend backend)
      : compress_(backend == Backend::kScalar ? &detail::compress_scalar
                                              : detail::dispatched_compress()) {
    reset();
  }

  void reset();
  void update(BytesView data);
  void update(std::string_view s) {
    update(BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }
  /// Finalizes and returns the digest; the context must be reset() to reuse.
  Digest finish();

 private:
  detail::CompressFn compress_;
  std::array<std::uint32_t, 8> h_;
  std::array<std::uint8_t, 64> buf_;
  std::size_t buf_len_ = 0;
  std::uint64_t total_len_ = 0;
};

/// One-shot convenience.
Digest sha256(BytesView data);
Digest sha256(std::string_view s);

/// One-shot through the scalar backend regardless of CPU features; the
/// property tests assert sha256() == sha256_portable() bit-for-bit.
Digest sha256_portable(BytesView data);

/// Domain-separated hash of several fields: H(tag || len(a)||a || ...).
Digest sha256_tagged(std::string_view tag, std::initializer_list<BytesView> parts);

/// First 8 bytes of a digest as a little-endian u64 (leader election, PRF).
std::uint64_t digest_prefix_u64(const Digest& d);

}  // namespace dr::crypto
