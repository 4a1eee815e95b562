#include "storage/snapshot.hpp"

#include <algorithm>

#include "common/assert.hpp"
#include "storage/wal.hpp"

namespace dr::storage {

const char* snapshot_count_error(std::uint64_t delivered, std::uint64_t commits) {
  if (delivered > kMaxSnapshotDelivered) {
    return "snapshot delivered count implausible";
  }
  if (commits > kMaxSnapshotCommits) return "snapshot commit count implausible";
  return nullptr;
}

Bytes encode_snapshot(const Snapshot& snap) {
  const char* error =
      snapshot_count_error(snap.delivered.size(), snap.commits.size());
  DR_ASSERT_MSG(error == nullptr, error);
  ByteWriter w;
  w.u32(kSnapMagic);
  w.u16(kSnapVersion);
  w.u16(0);  // reserved
  w.u32(snap.committee.n);
  w.u32(snap.committee.f);
  w.u32(snap.pid);
  w.u64(snap.gc_floor);
  w.u64(snap.decided_wave);
  w.u8(snap.ordering);
  w.u64(snap.rounds_per_wave);
  w.u32(static_cast<std::uint32_t>(snap.delivered.size()));
  for (const core::DeliveredRecord& rec : snap.delivered) {
    w.raw(BytesView{rec.block_digest.data(), rec.block_digest.size()});
    w.u64(rec.block_size);
    w.u64(rec.round);
    w.u32(rec.source);
    w.u64(rec.time);
  }
  w.u32(static_cast<std::uint32_t>(snap.commits.size()));
  for (const core::CommitRecord& rec : snap.commits) {
    w.u64(rec.wave);
    w.u32(rec.leader.source);
    w.u64(rec.leader.round);
    w.u8(rec.direct ? 1 : 0);
    w.u64(rec.time);
  }
  w.u32(crc32(BytesView(w.bytes())));
  return std::move(w).take();
}

Expected<Snapshot> decode_snapshot(BytesView data) {
  using Fail = Expected<Snapshot>;
  if (data.size() < 4) return Fail::failure("snapshot too short for its CRC");
  const BytesView body{data.data(), data.size() - 4};
  ByteReader tail(BytesView{data.data() + data.size() - 4, 4});
  if (crc32(body) != tail.u32()) return Fail::failure("snapshot CRC mismatch");

  ByteReader in(body);
  Snapshot snap;
  if (in.u32() != kSnapMagic) return Fail::failure("bad snapshot magic");
  const std::uint16_t version = in.u16();
  if (version < 1 || version > kSnapVersion) {
    return Fail::failure("unsupported snapshot version");
  }
  (void)in.u16();  // reserved
  snap.committee.n = in.u32();
  snap.committee.f = in.u32();
  snap.pid = in.u32();
  snap.gc_floor = in.u64();
  snap.decided_wave = in.u64();
  if (version >= 2) {
    snap.ordering = in.u8();
    snap.rounds_per_wave = in.u64();
  }
  const std::uint32_t n_delivered = in.u32();
  if (!in.ok()) return Fail::failure("snapshot truncated or oversized");
  if (const char* error = snapshot_count_error(n_delivered, 0)) {
    return Fail::failure(error);
  }
  snap.delivered.reserve(n_delivered);
  for (std::uint32_t i = 0; i < n_delivered && in.ok(); ++i) {
    core::DeliveredRecord rec;
    const Bytes digest = in.raw(rec.block_digest.size());
    if (digest.size() == rec.block_digest.size()) {
      std::copy(digest.begin(), digest.end(), rec.block_digest.begin());
    }
    rec.block_size = in.u64();
    rec.round = in.u64();
    rec.source = in.u32();
    rec.time = in.u64();
    snap.delivered.push_back(rec);
  }
  const std::uint32_t n_commits = in.u32();
  if (!in.ok()) return Fail::failure("snapshot truncated or oversized");
  if (const char* error = snapshot_count_error(0, n_commits)) {
    return Fail::failure(error);
  }
  snap.commits.reserve(n_commits);
  for (std::uint32_t i = 0; i < n_commits && in.ok(); ++i) {
    core::CommitRecord rec;
    rec.wave = in.u64();
    rec.leader.source = in.u32();
    rec.leader.round = in.u64();
    rec.direct = in.u8() != 0;
    rec.time = in.u64();
    snap.commits.push_back(rec);
  }
  if (!in.done()) return Fail::failure("snapshot truncated or oversized");
  if (!snap.committee.valid()) {
    return Fail::failure("snapshot committee invalid");
  }
  return snap;
}

}  // namespace dr::storage
