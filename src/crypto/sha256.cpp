#include "crypto/sha256.hpp"

#include <cstdlib>
#include <cstring>

#include "crypto/sha256_internal.hpp"

namespace dr::crypto {
namespace {

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

bool env_forces_scalar() {
  const char* v = std::getenv("DAGRIDER_SHA256_SCALAR");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

namespace detail {

void compress_scalar(std::uint32_t* state, const std::uint8_t* blocks,
                     std::size_t nblocks) {
  for (std::size_t blk = 0; blk < nblocks; ++blk) {
    const std::uint8_t* block = blocks + blk * 64;
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<std::uint32_t>(block[4 * i]) << 24) |
             (static_cast<std::uint32_t>(block[4 * i + 1]) << 16) |
             (static_cast<std::uint32_t>(block[4 * i + 2]) << 8) |
             static_cast<std::uint32_t>(block[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      const std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      const std::uint32_t ch = (e & f) ^ (~e & g);
      const std::uint32_t t1 = h + s1 + ch + kSha256Round[i] + w[i];
      const std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const std::uint32_t t2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + t1;
      d = c;
      c = b;
      b = a;
      a = t1 + t2;
    }
    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

CompressFn dispatched_compress() {
  // Resolved exactly once; the env override is read before any hashing so a
  // force-scalar test run never mixes backends mid-process.
  static const CompressFn fn = [] {
    if (!env_forces_scalar() && shani_supported()) return &compress_shani;
    return &compress_scalar;
  }();
  return fn;
}

}  // namespace detail

const char* sha256_backend() {
  return detail::dispatched_compress() == &detail::compress_scalar ? "scalar"
                                                                   : "sha-ni";
}

void Sha256::reset() {
  std::memcpy(h_.data(), detail::kSha256Init, sizeof(detail::kSha256Init));
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::update(BytesView data) {
  total_len_ += data.size();
  std::size_t off = 0;
  if (buf_len_ > 0) {
    const std::size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == buf_.size()) {
      compress_(h_.data(), buf_.data(), 1);
      buf_len_ = 0;
    }
  }
  if (const std::size_t full = (data.size() - off) / 64; full > 0) {
    compress_(h_.data(), data.data() + off, full);
    off += full * 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Digest Sha256::finish() {
  const std::uint64_t bit_len = total_len_ * 8;
  const std::uint8_t pad = 0x80;
  update(BytesView{&pad, 1});
  const std::uint8_t zero = 0;
  while (buf_len_ != 56) update(BytesView{&zero, 1});
  std::uint8_t len_be[8];
  for (int i = 0; i < 8; ++i) {
    len_be[i] = static_cast<std::uint8_t>(bit_len >> (8 * (7 - i)));
  }
  // Bypass total_len_ bookkeeping: the length block is part of padding.
  std::memcpy(buf_.data() + 56, len_be, 8);
  compress_(h_.data(), buf_.data(), 1);

  Digest out{};
  for (std::size_t i = 0; i < 8; ++i) {
    out[4 * i] = static_cast<std::uint8_t>(h_[i] >> 24);
    out[4 * i + 1] = static_cast<std::uint8_t>(h_[i] >> 16);
    out[4 * i + 2] = static_cast<std::uint8_t>(h_[i] >> 8);
    out[4 * i + 3] = static_cast<std::uint8_t>(h_[i]);
  }
  return out;
}

Digest sha256(BytesView data) {
  Sha256 ctx;
  ctx.update(data);
  return ctx.finish();
}

Digest sha256(std::string_view s) {
  Sha256 ctx;
  ctx.update(s);
  return ctx.finish();
}

Digest sha256_portable(BytesView data) {
  Sha256 ctx(Sha256::Backend::kScalar);
  ctx.update(data);
  return ctx.finish();
}

Digest sha256_tagged(std::string_view tag, std::initializer_list<BytesView> parts) {
  Sha256 ctx;
  ctx.update(tag);
  for (BytesView p : parts) {
    std::uint8_t len_le[8];
    const std::uint64_t n = p.size();
    for (int i = 0; i < 8; ++i) len_le[i] = static_cast<std::uint8_t>(n >> (8 * i));
    ctx.update(BytesView{len_le, 8});
    ctx.update(p);
  }
  return ctx.finish();
}

std::uint64_t digest_prefix_u64(const Digest& d) {
  std::uint64_t v = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  }
  return v;
}

}  // namespace dr::crypto
