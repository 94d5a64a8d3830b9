#include "persist/snapshot.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

constexpr uint8_t kSnapshotMagic[4] = {'B', 'P', 'S', 'N'};
// Encoded sizes of the smallest finished-query entry (tick, query index, a
// tick result with an empty name, no bit means) and of the smallest
// bit-means entry (value id, no means). DecodeBody bounds the counts it
// reads by the bytes that remain, so a corrupt count fails closed instead
// of sizing an allocation.
constexpr size_t kMinFinishedEntryBytes = 8 + 8 + (8 + 4 + 1 + 8 + 8) + 4;
constexpr size_t kMinBitMeansEntryBytes = 8 + 4;

std::string IoError(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

// The one encoder of the file format. It hands `emit` the file's bytes in
// order as four pieces: the magic, version, fixed fields and ledger length;
// the ledger blob itself; the finished queries, bit means and breaker-blob
// length; and the breaker blob. The two large blobs are passed through
// uncopied, so a file writer can stream them. The CRC-32 that closes the
// file covers every piece and is the caller's to append.
template <typename Emit>
void EncodeSnapshotPieces(const CoordinatorSnapshot& snapshot, Emit&& emit) {
  std::vector<uint8_t> piece;
  for (const uint8_t byte : kSnapshotMagic) bytes::PutByte(byte, &piece);
  bytes::PutByte(kSnapshotFormatVersion, &piece);
  bytes::PutUint64(snapshot.base_seed, &piece);
  bytes::PutUint64(snapshot.journal_next_seq, &piece);
  bytes::PutInt64(snapshot.completed_ticks, &piece);
  bytes::PutUint32(static_cast<uint32_t>(snapshot.meter_blob.size()), &piece);
  emit(piece.data(), piece.size());
  emit(snapshot.meter_blob.data(), snapshot.meter_blob.size());

  piece.clear();
  bytes::PutUint32(static_cast<uint32_t>(snapshot.finished.size()), &piece);
  for (const FinishedQueryEntry& entry : snapshot.finished) {
    bytes::PutInt64(entry.tick, &piece);
    bytes::PutInt64(entry.query_index, &piece);
    EncodeCampaignTickResult(entry.result, &piece);
    bytes::PutDoubleVector(entry.final_bit_means, &piece);
  }
  bytes::PutUint32(static_cast<uint32_t>(snapshot.bit_means.size()), &piece);
  for (const BitMeansEntry& entry : snapshot.bit_means) {
    bytes::PutInt64(entry.value_id, &piece);
    bytes::PutDoubleVector(entry.means, &piece);
  }
  bytes::PutUint32(static_cast<uint32_t>(snapshot.health_blob.size()),
                   &piece);
  emit(piece.data(), piece.size());
  emit(snapshot.health_blob.data(), snapshot.health_blob.size());
}

bool GetBlob(const std::vector<uint8_t>& buffer, size_t* cursor,
             std::vector<uint8_t>* out) {
  uint32_t length = 0;
  if (!bytes::GetUint32(buffer, cursor, &length)) return false;
  if (buffer.size() - *cursor < static_cast<size_t>(length)) return false;
  out->assign(buffer.begin() + static_cast<ptrdiff_t>(*cursor),
              buffer.begin() + static_cast<ptrdiff_t>(*cursor + length));
  *cursor += length;
  return true;
}

bool DecodeBody(const std::vector<uint8_t>& buffer, size_t* offset,
                CoordinatorSnapshot* out) {
  size_t cursor = *offset;
  CoordinatorSnapshot snapshot;
  if (!bytes::GetUint64(buffer, &cursor, &snapshot.base_seed) ||
      !bytes::GetUint64(buffer, &cursor, &snapshot.journal_next_seq) ||
      !bytes::GetInt64(buffer, &cursor, &snapshot.completed_ticks) ||
      !GetBlob(buffer, &cursor, &snapshot.meter_blob)) {
    return false;
  }
  if (snapshot.completed_ticks < 0) return false;

  uint32_t finished_count = 0;
  if (!bytes::GetUint32(buffer, &cursor, &finished_count) ||
      (buffer.size() - cursor) / kMinFinishedEntryBytes < finished_count) {
    return false;
  }
  snapshot.finished.reserve(finished_count);
  for (uint32_t i = 0; i < finished_count; ++i) {
    FinishedQueryEntry entry;
    if (!bytes::GetInt64(buffer, &cursor, &entry.tick) ||
        !bytes::GetInt64(buffer, &cursor, &entry.query_index) ||
        !DecodeCampaignTickResult(buffer, &cursor, &entry.result) ||
        !bytes::GetDoubleVector(buffer, &cursor, &entry.final_bit_means)) {
      return false;
    }
    if (entry.tick < 0 || entry.query_index < 0 ||
        entry.tick != entry.result.tick) {
      return false;
    }
    for (const double mean : entry.final_bit_means) {
      if (std::isnan(mean)) return false;
    }
    // Chronological, no duplicates: queries finish in (tick, index) order.
    if (!snapshot.finished.empty()) {
      const FinishedQueryEntry& previous = snapshot.finished.back();
      if (entry.tick < previous.tick ||
          (entry.tick == previous.tick &&
           entry.query_index <= previous.query_index)) {
        return false;
      }
    }
    snapshot.finished.push_back(std::move(entry));
  }

  uint32_t means_count = 0;
  if (!bytes::GetUint32(buffer, &cursor, &means_count) ||
      (buffer.size() - cursor) / kMinBitMeansEntryBytes < means_count) {
    return false;
  }
  snapshot.bit_means.reserve(means_count);
  for (uint32_t i = 0; i < means_count; ++i) {
    BitMeansEntry entry;
    if (!bytes::GetInt64(buffer, &cursor, &entry.value_id) ||
        !bytes::GetDoubleVector(buffer, &cursor, &entry.means)) {
      return false;
    }
    for (const double mean : entry.means) {
      if (std::isnan(mean)) return false;
    }
    if (!snapshot.bit_means.empty() &&
        entry.value_id <= snapshot.bit_means.back().value_id) {
      return false;  // canonical order: sorted by value id, no duplicates
    }
    snapshot.bit_means.push_back(std::move(entry));
  }

  if (!GetBlob(buffer, &cursor, &snapshot.health_blob)) return false;

  *out = std::move(snapshot);
  *offset = cursor;
  return true;
}

}  // namespace

void EncodeCoordinatorSnapshot(const CoordinatorSnapshot& snapshot,
                               std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  const size_t start = out->size();
  EncodeSnapshotPieces(snapshot, [out](const uint8_t* data, size_t size) {
    out->insert(out->end(), data, data + size);
  });
  const uint32_t crc = bytes::Crc32(out->data() + start, out->size() - start);
  bytes::PutUint32(crc, out);
}

bool DecodeCoordinatorSnapshot(const std::vector<uint8_t>& buffer,
                               CoordinatorSnapshot* out) {
  BITPUSH_CHECK(out != nullptr);
  if (buffer.size() < 4 + 1 + 4) return false;
  if (std::memcmp(buffer.data(), kSnapshotMagic, 4) != 0) return false;
  if (buffer[4] != kSnapshotFormatVersion) return false;
  const size_t body_end = buffer.size() - 4;
  const uint32_t computed_crc = bytes::Crc32(buffer.data(), body_end);
  size_t crc_cursor = body_end;
  uint32_t stored_crc = 0;
  if (!bytes::GetUint32(buffer, &crc_cursor, &stored_crc)) return false;
  if (computed_crc != stored_crc) return false;
  size_t cursor = 5;
  CoordinatorSnapshot snapshot;
  if (!DecodeBody(buffer, &cursor, &snapshot)) return false;
  if (cursor != body_end) return false;  // trailing garbage inside the CRC
  *out = std::move(snapshot);
  return true;
}

bool WriteSnapshotFile(const std::string& path,
                       const CoordinatorSnapshot& snapshot,
                       std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  // Snapshot I/O metrics are kVolatile: how many snapshots a run takes
  // (and their wall-clock cost) depends on where crashes landed.
  obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* writes = registry.GetCounter(
      "bitpush_snapshot_writes_total", "Snapshot files written.",
      obs::Determinism::kVolatile);
  static obs::Gauge* size_bytes = registry.GetGauge(
      "bitpush_snapshot_bytes", "Size of the last snapshot written.",
      obs::Determinism::kVolatile);
  static obs::Histogram* duration = registry.GetHistogram(
      "bitpush_snapshot_write_seconds",
      "Wall-clock time to encode, write, and fsync one snapshot.",
      obs::LatencySecondsBounds(), obs::Determinism::kVolatile);
  obs::ScopedTimer timer(duration);
  obs::Span span("snapshot.write", "persist");

  const std::string temp_path = path + ".tmp";
  std::FILE* file = std::fopen(temp_path.c_str(), "wb");
  if (file == nullptr) {
    *error = IoError("open snapshot temp", temp_path);
    return false;
  }
  // Streamed: each piece goes to the file as it is encoded, under a
  // running CRC, so the ledger blob is never copied into a file image.
  bool wrote = true;
  uint32_t crc = 0;
  size_t file_bytes = 0;
  const auto write = [&](const uint8_t* data, size_t size) {
    if (size == 0) return;
    wrote = wrote && std::fwrite(data, 1, size, file) == size;
    file_bytes += size;
  };
  EncodeSnapshotPieces(snapshot, [&](const uint8_t* data, size_t size) {
    crc = bytes::Crc32Extend(crc, data, size);
    write(data, size);
  });
  std::vector<uint8_t> trailer;
  bytes::PutUint32(crc, &trailer);
  write(trailer.data(), trailer.size());
  writes->Increment();
  size_bytes->Set(static_cast<double>(file_bytes));
  span.AddNumeric("bytes", static_cast<double>(file_bytes));

  const bool flushed = wrote && std::fflush(file) == 0;
  const bool synced = flushed && fsync(fileno(file)) == 0;
  std::fclose(file);
  if (!synced) {
    *error = IoError("write snapshot temp", temp_path);
    std::remove(temp_path.c_str());
    return false;
  }
  if (std::rename(temp_path.c_str(), path.c_str()) != 0) {
    *error = IoError("rename snapshot", path);
    std::remove(temp_path.c_str());
    return false;
  }
  // The rename is only durable once the directory entry is; without this a
  // power loss could resurrect the old snapshot after the journal had
  // already been truncated against the new one.
  return SyncParentDir(path, error);
}

bool SyncParentDir(const std::string& path, std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  const size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? std::string(".")
                          : slash == 0              ? std::string("/")
                                                    : path.substr(0, slash);
  const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    *error = IoError("open state dir", dir);
    return false;
  }
  const bool synced = fsync(fd) == 0;
  if (!synced) *error = IoError("fsync state dir", dir);
  close(fd);
  return synced;
}

bool LoadSnapshotFile(const std::string& path, CoordinatorSnapshot* out,
                      bool* found, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(found != nullptr);
  BITPUSH_CHECK(error != nullptr);
  *found = false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) return true;
    *error = IoError("open snapshot", path);
    return false;
  }
  std::vector<uint8_t> data;
  uint8_t chunk[4096];
  size_t n;
  while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data.insert(data.end(), chunk, chunk + n);
  }
  const bool read_error = std::ferror(file) != 0;
  std::fclose(file);
  if (read_error) {
    *error = IoError("read snapshot", path);
    return false;
  }
  if (!DecodeCoordinatorSnapshot(data, out)) {
    *error = "snapshot failed validation (bad magic, version, CRC, or body)";
    return false;
  }
  *found = true;
  return true;
}

}  // namespace bitpush
