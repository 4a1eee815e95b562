// Minimal byte-oriented serialization. Every protocol message is serialized
// through ByteWriter so the simulator can account for wire bytes exactly —
// the communication-complexity experiments (Table 1) depend on this.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/assert.hpp"

namespace dr {

using Bytes = std::vector<std::uint8_t>;
using BytesView = std::span<const std::uint8_t>;

/// Appends fixed-width little-endian integers and length-prefixed blobs.
class ByteWriter {
 public:
  ByteWriter() = default;
  explicit ByteWriter(std::size_t reserve) { buf_.reserve(reserve); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) { append_le(v); }
  void u32(std::uint32_t v) { append_le(v); }
  void u64(std::uint64_t v) { append_le(v); }

  /// Raw bytes, no length prefix. Use for fixed-size digests.
  void raw(BytesView b) { buf_.insert(buf_.end(), b.begin(), b.end()); }

  /// Length-prefixed (u32) variable blob.
  void blob(BytesView b) {
    u32(static_cast<std::uint32_t>(b.size()));
    raw(b);
  }
  void blob(std::string_view s) {
    blob(BytesView{reinterpret_cast<const std::uint8_t*>(s.data()), s.size()});
  }

  std::size_t size() const { return buf_.size(); }
  Bytes take() && { return std::move(buf_); }
  const Bytes& bytes() const { return buf_; }

 private:
  template <typename T>
  void append_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
  Bytes buf_;
};

/// Consumes what ByteWriter produced. All reads are checked: a read past the
/// end (malformed message from a Byzantine sender) flips the reader into a
/// failed state instead of reading garbage; callers test ok() once at the end.
class ByteReader {
 public:
  explicit ByteReader(BytesView data) : data_(data) {}

  std::uint8_t u8() { return read_le<std::uint8_t>(); }
  std::uint16_t u16() { return read_le<std::uint16_t>(); }
  std::uint32_t u32() { return read_le<std::uint32_t>(); }
  std::uint64_t u64() { return read_le<std::uint64_t>(); }

  /// Reads exactly n raw bytes (fixed-size digest fields). Out of line:
  /// inlined into a caller whose buffer GCC 12 can see, the copy trips a
  /// false -Wstringop-overread on the length-checked path.
  Bytes raw(std::size_t n);

  /// Reads a u32 length prefix then that many bytes.
  Bytes blob() {
    const std::uint32_t n = u32();
    return raw(n);
  }

  bool ok() const { return ok_; }
  bool done() const { return ok_ && pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  template <typename T>
  T read_le() {
    if (!check(sizeof(T))) return T{};
    T v{};
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(data_[pos_ + i]) << (8 * i)));
    }
    pos_ += sizeof(T);
    return v;
  }
  bool check(std::size_t n) {
    if (!ok_ || pos_ + n > data_.size()) {
      ok_ = false;
      return false;
    }
    return true;
  }

  BytesView data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

/// Hex rendering for digests in logs and test failure messages.
std::string to_hex(BytesView b);

}  // namespace dr
