// Coordinator snapshots.
//
// A snapshot captures everything the durable coordinator needs to resume a
// campaign without the journal growing forever: the privacy-meter ledger
// (as its canonical encoded blob), every finished query's tick result and
// final bit means, the adaptive bit-means cache, the circuit-breaker state,
// and the sequence number at which the journal resumes. After a
// snapshot is durably in place (write-to-temp, fsync, atomic rename) the
// journal is truncated; recovery loads the newest snapshot and replays the
// short journal tail on top of it.
//
// File format: "BPSN" magic, the snapshot's own format-version byte
// (kSnapshotFormatVersion), the encoded body, and a trailing CRC-32 over
// everything before it. Decoding rejects a bad magic, an unknown version,
// a CRC mismatch, and any internally inconsistent body — fail closed, same
// rule as the journal.

#ifndef BITPUSH_PERSIST_SNAPSHOT_H_
#define BITPUSH_PERSIST_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "federated/campaign.h"

namespace bitpush {

// The snapshot file's own format byte, separate from kWireFormatVersion
// (which journal and wire frames keep at 1). Version 1 carried an
// open-sessions count ahead of the breaker blob; decoding rejects it.
inline constexpr uint8_t kSnapshotFormatVersion = 2;

// One finished (run or skipped) scheduled query.
struct FinishedQueryEntry {
  int64_t tick = 0;
  int64_t query_index = 0;
  CampaignTickResult result;
  // Final unbiased bit means of the query (empty for skips); feeds the
  // bit-means cache.
  std::vector<double> final_bit_means;
};

// Latest final bit means observed per value id (the adaptive cache a
// coordinator consults to seed future allocations).
struct BitMeansEntry {
  int64_t value_id = 0;
  std::vector<double> means;
};

struct CoordinatorSnapshot {
  // Seed of the campaign's root RNG; recovery refuses a state directory
  // recorded under a different seed.
  uint64_t base_seed = 0;
  // Sequence number of the first journal record *after* this snapshot.
  uint64_t journal_next_seq = 0;
  // Number of fully closed campaign ticks (ticks [0, completed_ticks)).
  int64_t completed_ticks = 0;
  // PrivacyMeter::EncodeTo blob (kept opaque here; recovery decodes it).
  std::vector<uint8_t> meter_blob;
  // Every finished query since campaign start, in chronological order.
  std::vector<FinishedQueryEntry> finished;
  // Adaptive bit-means cache, sorted by value id.
  std::vector<BitMeansEntry> bit_means;
  // Circuit-breaker state (HealthTracker::EncodeTo, kept opaque; empty when
  // the campaign runs without a breaker). Restoring it from the snapshot
  // preserves failure history older than the journal tail, so quarantine
  // decisions after recovery match an uninterrupted run.
  std::vector<uint8_t> health_blob;
};

// Full-file encode/decode (magic + version + body + CRC). Decode returns
// false on any framing or consistency violation without touching `*out`.
void EncodeCoordinatorSnapshot(const CoordinatorSnapshot& snapshot,
                               std::vector<uint8_t>* out);
bool DecodeCoordinatorSnapshot(const std::vector<uint8_t>& buffer,
                               CoordinatorSnapshot* out);

// Atomically replaces `path` with the encoded snapshot: write to a
// temporary sibling, fsync, rename, fsync the directory. Returns false
// with `*error` on I/O failure.
bool WriteSnapshotFile(const std::string& path,
                       const CoordinatorSnapshot& snapshot,
                       std::string* error);

// Fsyncs the directory containing `path`, making a preceding rename or
// file creation inside it durable across power loss. Returns false with
// `*error` set on failure.
bool SyncParentDir(const std::string& path, std::string* error);

// Loads and decodes `path`. A missing file is success with `*found` set to
// false (fresh state directory). Corruption is an error — a coordinator
// must not silently start from scratch when its ledger exists but is
// unreadable.
bool LoadSnapshotFile(const std::string& path, CoordinatorSnapshot* out,
                      bool* found, std::string* error);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_SNAPSHOT_H_
