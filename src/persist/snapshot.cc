#include "persist/snapshot.h"

#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/file.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

constexpr uint8_t kSnapshotMagic[4] = {'B', 'P', 'S', 'N'};
// Encoded size of the smallest finished-query entry: query index, a tick
// result with an empty name, zero-width tallies and the 15 fault
// counters. DecodeBody bounds the count it reads by the bytes that
// remain, so a corrupt count fails closed instead of sizing an
// allocation.
constexpr size_t kMinFinishedEntryBytes =
    8 + (8 + 4 + 1 + 8 + 8) + (4 + 4) + 15 * 8;

// The one encoder of the file format. It hands `emit` the file's bytes in
// order as four pieces: the magic, version, fixed fields and ledger length;
// the ledger blob itself; the finished queries and breaker-blob length;
// and the breaker blob. The two large blobs are passed through
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
    bytes::PutInt64(entry.query_index, &piece);
    EncodeCampaignTickResult(entry.result, &piece);
    EncodeBitHistogram(entry.tallies, &piece);
    EncodeFaultStats(entry.faults, &piece);
  }
  bytes::PutUint32(static_cast<uint32_t>(snapshot.health_blob.size()),
                   &piece);
  emit(piece.data(), piece.size());
  emit(snapshot.health_blob.data(), snapshot.health_blob.size());
}

bool GetBlob(std::span<const uint8_t> buffer, size_t* cursor,
             std::span<const uint8_t>* out) {
  size_t at = *cursor;
  uint32_t length = 0;
  if (!bytes::GetUint32(buffer, &at, &length)) return false;
  if (buffer.size() - at < static_cast<size_t>(length)) return false;
  *out = buffer.subspan(at, length);
  *cursor = at + length;
  return true;
}

bool DecodeBody(std::span<const uint8_t> buffer, size_t* offset,
                CoordinatorSnapshotView* out) {
  size_t cursor = *offset;
  CoordinatorSnapshotView snapshot;
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
    if (!bytes::GetInt64(buffer, &cursor, &entry.query_index) ||
        !DecodeCampaignTickResult(buffer, &cursor, &entry.result) ||
        !DecodeBitHistogram(buffer, &cursor, &entry.tallies) ||
        !DecodeFaultStats(buffer, &cursor, &entry.faults)) {
      return false;
    }
    // Every finished query belongs to a completed tick: the in-flight
    // tick's finished queries live in the journal, never in a snapshot.
    const int64_t tick = entry.result.tick;
    if (tick >= snapshot.completed_ticks || entry.query_index < 0) {
      return false;
    }
    // Chronological, no duplicates: queries finish in (tick, index) order.
    if (!snapshot.finished.empty()) {
      const FinishedQueryEntry& previous = snapshot.finished.back();
      if (tick < previous.result.tick ||
          (tick == previous.result.tick &&
           entry.query_index <= previous.query_index)) {
        return false;
      }
    }
    snapshot.finished.push_back(std::move(entry));
  }

  if (!GetBlob(buffer, &cursor, &snapshot.health_blob)) return false;

  *out = std::move(snapshot);
  *offset = cursor;
  return true;
}

}  // namespace

FinishedQueryEntry MakeFinishedQueryEntry(int64_t query_index,
                                          const CampaignTickResult& result,
                                          const FederatedQueryResult& outcome) {
  FinishedQueryEntry entry;
  entry.query_index = query_index;
  entry.result = result;
  for (const RoundOutcome* round : {&outcome.round1, &outcome.round2}) {
    entry.faults.MergeFrom(round->faults);
    entry.tallies.Merge(round->histogram);  // a round never run adds nothing
  }
  return entry;
}

// bitpush-lint: allow(unreached-function): the in-memory image of the bytes WriteSnapshotFile streams, which SnapshotFuzzTest.DecoderFailsClosedOnEveryMutation and SnapshotTest.EncodeDecodeRoundTrip feed to the live decoder
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

bool DecodeCoordinatorSnapshot(std::span<const uint8_t> buffer,
                               CoordinatorSnapshotView* out) {
  BITPUSH_CHECK(out != nullptr);
  if (buffer.size() < 4 + 1 + 4) return false;
  if (std::memcmp(buffer.data(), kSnapshotMagic, 4) != 0) return false;
  if (buffer[4] != kSnapshotFormatVersion) return false;
  const size_t body_end = buffer.size() - 4;
  if (bytes::Crc32(buffer.data(), body_end) !=
      bytes::LoadUint32(buffer.data() + body_end)) {
    return false;
  }
  size_t cursor = 5;
  CoordinatorSnapshotView snapshot;
  if (!DecodeBody(buffer.first(body_end), &cursor, &snapshot)) return false;
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

  // Streamed: each piece goes to the file as it is encoded, under a
  // running CRC, so the ledger blob is never copied into a file image.
  // Synced whatever the journal's fsync setting: without the directory
  // fsync a power loss could resurrect the old snapshot after the journal
  // had already been truncated against the new one.
  size_t file_bytes = 0;
  const bool replaced = ReplaceFile(
      path, /*sync=*/true,
      [&](const FileSink& sink) {
        uint32_t crc = 0;
        EncodeSnapshotPieces(snapshot, [&](const uint8_t* data, size_t size) {
          crc = bytes::Crc32Extend(crc, data, size);
          sink(data, size);
          file_bytes += size;
        });
        std::vector<uint8_t> trailer;
        bytes::PutUint32(crc, &trailer);
        sink(trailer.data(), trailer.size());
        file_bytes += trailer.size();
      },
      error, span.context());
  span.AddNumeric("bytes", static_cast<double>(file_bytes));
  if (!replaced) return false;
  writes->Increment();
  size_bytes->Set(static_cast<double>(file_bytes));
  return true;
}

bool LoadSnapshotFile(const std::string& path, std::vector<uint8_t>* image,
                      CoordinatorSnapshotView* out, bool* found,
                      std::string* error) {
  BITPUSH_CHECK(image != nullptr);
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(found != nullptr);
  BITPUSH_CHECK(error != nullptr);
  *found = false;
  bool exists = false;
  if (!ReadWholeFile(path, image, &exists, error)) return false;
  if (!exists) return true;
  if (!DecodeCoordinatorSnapshot(std::span<const uint8_t>(*image), out)) {
    *error = "snapshot failed validation (bad magic, version, CRC, or body)";
    return false;
  }
  *found = true;
  return true;
}

}  // namespace bitpush
