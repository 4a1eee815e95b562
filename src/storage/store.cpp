#include "storage/store.hpp"

#include <unistd.h>

#include <array>
#include <filesystem>

#include "common/assert.hpp"

namespace dr::storage {

namespace {

constexpr const char* kWalFile = "wal.bin";
constexpr const char* kSnapshotFile = "snapshot.bin";

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return {};
  Bytes out;
  std::array<std::uint8_t, 65536> chunk;
  for (;;) {
    const std::size_t got = std::fread(chunk.data(), 1, chunk.size(), f);
    out.insert(out.end(), chunk.begin(),
               chunk.begin() + static_cast<std::ptrdiff_t>(got));
    if (got < chunk.size()) break;
  }
  std::fclose(f);
  return out;
}

void write_all(std::FILE* f, BytesView data) {
  const std::size_t wrote = std::fwrite(data.data(), 1, data.size(), f);
  DR_ASSERT_MSG(wrote == data.size(), "short write to vertex store");
}

void flush_file(std::FILE* f, bool fsync) {
  std::fflush(f);
  if (fsync) ::fsync(::fileno(f));
}

}  // namespace

VertexStore::VertexStore(Committee committee, ProcessId pid, StoreOptions opts)
    : committee_(committee), pid_(pid), opts_(std::move(opts)) {
  DR_ASSERT_MSG(!opts_.dir.empty(), "VertexStore needs a data directory");
  std::filesystem::create_directories(opts_.dir);
}

VertexStore::~VertexStore() {
  if (wal_ != nullptr) {
    flush_file(wal_, opts_.fsync);
    std::fclose(wal_);
  }
}

std::string VertexStore::wal_path() const {
  return opts_.dir + "/" + kWalFile;
}

std::string VertexStore::snapshot_path() const {
  return opts_.dir + "/" + kSnapshotFile;
}

void VertexStore::open_wal_for_append(bool write_header) {
  DR_ASSERT(wal_ == nullptr);
  wal_ = std::fopen(wal_path().c_str(), write_header ? "wb" : "ab");
  DR_ASSERT_MSG(wal_ != nullptr, "cannot open WAL for appending");
  if (write_header) {
    const Bytes header = encode_wal_header(committee_, pid_);
    write_all(wal_, BytesView(header));
    flush_file(wal_, opts_.fsync);
  }
}

RecoverResult VertexStore::recover() {
  DR_ASSERT_MSG(!recovered_, "VertexStore::recover is one-shot");
  recovered_ = true;
  RecoverResult result;

  const Bytes snap_bytes = read_file(snapshot_path());
  if (!snap_bytes.empty()) {
    Expected<Snapshot> snap = decode_snapshot(BytesView(snap_bytes));
    if (snap.ok() && snap.value().committee.n == committee_.n &&
        snap.value().committee.f == committee_.f &&
        snap.value().pid == pid_) {
      result.snapshot = std::move(snap).value();
      stats_.snapshot_loaded = true;
    } else {
      // A snapshot that fails its CRC or belongs to another process is
      // useless AND marks the WAL as untrustworthy (it may have been
      // compacted against that snapshot's floor): restart empty.
      result.wal_clean = false;
      result.wal_error = "snapshot unusable; storage reset";
      open_wal_for_append(/*write_header=*/true);
      return result;
    }
  }

  const Bytes wal_bytes = read_file(wal_path());
  WalDecoder decoder(committee_, pid_);
  decoder.feed(BytesView(wal_bytes));
  while (auto rec = decoder.next()) {
    if (rec->type == WalRecordType::kVertex) {
      ++stats_.recovered_vertices;
    } else {
      ++stats_.recovered_proposals;
      pending_proposals_[rec->round] = rec->payload;
    }
    result.records.push_back(std::move(*rec));
  }
  if (!wal_bytes.empty() && !decoder.header_seen()) {
    // Header invalid (foreign committee/pid/corrupt): the whole file is
    // untrustworthy. Start a fresh WAL rather than appending to it.
    result.records.clear();
    pending_proposals_.clear();
    stats_.recovered_vertices = 0;
    stats_.recovered_proposals = 0;
    result.wal_clean = false;
    result.wal_error = decoder.error();
    open_wal_for_append(/*write_header=*/true);
    return result;
  }
  if (decoder.dead()) {
    result.wal_clean = false;
    result.wal_error = decoder.error();
  }
  if (wal_bytes.empty()) {
    open_wal_for_append(/*write_header=*/true);
    return result;
  }
  // Crash-consistent prefix: drop the torn or corrupt tail so future appends
  // extend a well-formed file (appending after garbage would hide every
  // record written post-restart from the next recovery).
  if (decoder.consumed() < wal_bytes.size()) {
    stats_.recovered_truncated_bytes = wal_bytes.size() - decoder.consumed();
    std::filesystem::resize_file(wal_path(), decoder.consumed());
  }
  open_wal_for_append(/*write_header=*/false);
  return result;
}

void VertexStore::append_record(const WalRecord& rec) {
  DR_ASSERT_MSG(wal_ != nullptr, "append before recover()");
  const Bytes encoded = encode_wal_record(rec);
  write_all(wal_, BytesView(encoded));
  flush_file(wal_, opts_.fsync);
  stats_.bytes_appended += encoded.size();
}

void VertexStore::append_vertex(const dag::Vertex& v) {
  WalRecord rec;
  rec.type = WalRecordType::kVertex;
  rec.source = v.source;
  rec.round = v.round;
  // wire_payload() reuses the delivered bytes when the vertex still carries
  // them (the common case) — no re-serialization on the append path.
  rec.payload = v.wire_payload().to_bytes();
  append_record(rec);
  ++stats_.vertices_appended;
}

void VertexStore::append_proposal(Round r, BytesView payload) {
  WalRecord rec;
  rec.type = WalRecordType::kProposal;
  rec.source = pid_;
  rec.round = r;
  rec.payload.assign(payload.begin(), payload.end());
  append_record(rec);
  pending_proposals_[r] = rec.payload;
  ++stats_.proposals_appended;
}

void VertexStore::compact(const Snapshot& snap, const dag::Dag& dag) {
  DR_ASSERT_MSG(wal_ != nullptr, "compact before recover()");
  // 1. Snapshot first, atomically. If we crash after this rename the old
  //    (longer) WAL replays against the new floor: records below it are
  //    dropped by the restore path, records above replay identically.
  const std::string snap_tmp = snapshot_path() + ".tmp";
  {
    std::FILE* f = std::fopen(snap_tmp.c_str(), "wb");
    DR_ASSERT_MSG(f != nullptr, "cannot open snapshot temp file");
    const Bytes encoded = encode_snapshot(snap);
    write_all(f, BytesView(encoded));
    flush_file(f, opts_.fsync);
    std::fclose(f);
  }
  std::filesystem::rename(snap_tmp, snapshot_path());

  // 2. Rewrite the WAL from the live DAG: rounds >= floor in ascending
  //    order (a valid causal order — strong edges point one round down,
  //    weak edges further down), then own proposals not yet in the DAG.
  for (auto it = pending_proposals_.begin(); it != pending_proposals_.end();) {
    const bool stale = it->first < snap.gc_floor ||
                       dag.contains(dag::VertexId{pid_, it->first});
    it = stale ? pending_proposals_.erase(it) : std::next(it);
  }
  const std::string wal_tmp = wal_path() + ".tmp";
  {
    std::FILE* f = std::fopen(wal_tmp.c_str(), "wb");
    DR_ASSERT_MSG(f != nullptr, "cannot open WAL temp file");
    const Bytes header = encode_wal_header(committee_, pid_);
    write_all(f, BytesView(header));
    const Round from = std::max<Round>(1, snap.gc_floor);
    for (Round r = from; r <= dag.max_round(); ++r) {
      if (r < dag.compacted_floor()) continue;  // stubs: contents freed
      for (ProcessId p : dag.round_sources(r)) {
        const dag::Vertex* v = dag.get(dag::VertexId{p, r});
        WalRecord rec;
        rec.type = WalRecordType::kVertex;
        rec.source = p;
        rec.round = r;
        rec.payload = v->wire_payload().to_bytes();
        const Bytes encoded = encode_wal_record(rec);
        write_all(f, BytesView(encoded));
      }
    }
    for (const auto& [r, payload] : pending_proposals_) {
      WalRecord rec;
      rec.type = WalRecordType::kProposal;
      rec.source = pid_;
      rec.round = r;
      rec.payload = payload;
      const Bytes encoded = encode_wal_record(rec);
      write_all(f, BytesView(encoded));
    }
    flush_file(f, opts_.fsync);
    std::fclose(f);
  }
  std::fclose(wal_);
  wal_ = nullptr;
  std::filesystem::rename(wal_tmp, wal_path());
  open_wal_for_append(/*write_header=*/false);
  ++stats_.compactions;
}

}  // namespace dr::storage
