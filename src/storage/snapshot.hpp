// Snapshot of one process's delivered/commit state, the companion of the
// WAL: compaction writes a snapshot at the GC floor, then rewrites the WAL
// keeping only rounds >= floor. Recovery seeds the ordering layer from the
// snapshot (decided wave, delivered-vertex ids at or above the floor, the
// full delivered/commit logs for the auditors) and replays the trimmed WAL
// on top. The file is written atomically (temp + rename, see store.cpp) and
// carries a trailing CRC-32 over everything before it, so a torn snapshot is
// detected as a whole rather than half-applied.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.hpp"
#include "common/expected.hpp"
#include "common/types.hpp"
#include "core/records.hpp"

namespace dr::storage {

inline constexpr std::uint32_t kSnapMagic = 0x504E5344;  // "DSNP" LE
/// v2 adds the ordering-personality stamp (kind + rounds_per_wave), so
/// recovery can refuse to replay a log written under a different commit
/// rule. v1 snapshots still decode, defaulting to DagRider's shape.
inline constexpr std::uint16_t kSnapVersion = 2;

/// Defensive caps mirroring the WAL codec: a corrupt count field must not
/// make recovery allocate gigabytes.
inline constexpr std::uint32_t kMaxSnapshotDelivered = 1u << 24;
inline constexpr std::uint32_t kMaxSnapshotCommits = 1u << 22;

struct Snapshot {
  Committee committee;
  ProcessId pid = 0;
  Round gc_floor = 0;
  Wave decided_wave = 0;
  /// core::OrderingKind of the writer, stored raw to keep this header free
  /// of the ordering layer. Wave/commit state is only meaningful under the
  /// personality (and wave geometry) that produced it.
  std::uint8_t ordering = 0;
  Round rounds_per_wave = kRoundsPerWave;
  std::vector<core::DeliveredRecord> delivered;
  std::vector<core::CommitRecord> commits;
};

/// Why a snapshot holding this many records could not be restored (a count
/// above its cap), or nullptr if it can. decode_snapshot rejects such a
/// snapshot, and encode_snapshot aborts on one rather than write it, so a
/// node never writes a snapshot it cannot read back.
const char* snapshot_count_error(std::uint64_t delivered, std::uint64_t commits);

Bytes encode_snapshot(const Snapshot& snap);

/// Rejects short input, wrong magic/version, count fields beyond the caps,
/// and any CRC mismatch. Committee/pid consistency against the recovering
/// process is the caller's job (VertexStore::recover knows the expected
/// values).
Expected<Snapshot> decode_snapshot(BytesView data);

}  // namespace dr::storage
