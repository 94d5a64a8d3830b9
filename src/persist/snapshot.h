// Coordinator snapshots.
//
// A snapshot captures everything the durable coordinator needs to resume a
// campaign without the journal growing forever: the privacy-meter ledger
// (as its canonical encoded blob), every finished query's entry, the
// circuit-breaker state, and the sequence number at which the journal
// resumes. After a snapshot is durably in place (ReplaceFile's temp
// sibling, fsync, atomic rename and directory fsync; persist/file.h) the
// journal is emptied; recovery loads the newest snapshot and restores the
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
#include <span>
#include <string>
#include <vector>

#include "core/bit_pushing.h"
#include "federated/campaign.h"
#include "federated/faults.h"

namespace bitpush {

// The snapshot file's own format byte, separate from kWireFormatVersion
// (wire frames) and kJournalFormatVersion (journal frames). Version 1
// carried an open-sessions count ahead of the breaker blob, version 2
// kept each finished query's final bit means and a bit-means cache in
// place of its tallies and fault counters, and version 3's breaker blob
// held the failure-rate trigger's policy and each client's failure and
// success counts; decoding rejects all three.
inline constexpr uint8_t kSnapshotFormatVersion = 4;

// One finished (run or skipped) scheduled query: the one record of it that
// recovery serves, a snapshot stores and a shard frame row carries. The
// tallies are the query's binary histograms, which add exactly across
// shards.
struct FinishedQueryEntry {
  int64_t query_index = 0;
  CampaignTickResult result;  // result.tick is the entry's tick
  // Round-1 plus round-2 tallies; zero-width when no round tallied.
  BitHistogram tallies;
  // Round-level fault sums. Not FederatedQueryResult::faults, which also
  // counts the query-level fallback: a query restored from the journal
  // has only its rounds, and live and restored entries must be equal.
  FaultStats faults;

  friend bool operator==(const FinishedQueryEntry&,
                         const FinishedQueryEntry&) = default;
};

// The entry of query `query_index`, finished with `result` after the
// rounds in `outcome`. The live path, journal restore and the
// single-coordinator shard reference all build their entries here.
FinishedQueryEntry MakeFinishedQueryEntry(int64_t query_index,
                                          const CampaignTickResult& result,
                                          const FederatedQueryResult& outcome);

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
  // Every finished query since campaign start, in chronological order,
  // each at a tick below completed_ticks.
  std::vector<FinishedQueryEntry> finished;
  // Circuit-breaker state (HealthTracker::EncodeTo, kept opaque; empty when
  // the campaign runs without a breaker). Restoring it from the snapshot
  // preserves failure history older than the journal tail, so quarantine
  // decisions after recovery match an uninterrupted run.
  std::vector<uint8_t> health_blob;
};

// A snapshot decoded in place: CoordinatorSnapshot's fields, with the
// ledger and breaker blobs left where they lie in the file image it was
// decoded from, so that recovery decodes the ledger straight out of it.
struct CoordinatorSnapshotView {
  uint64_t base_seed = 0;
  uint64_t journal_next_seq = 0;
  int64_t completed_ticks = 0;
  std::span<const uint8_t> meter_blob;
  std::vector<FinishedQueryEntry> finished;
  std::span<const uint8_t> health_blob;
};

// Full-file encode/decode (magic + version + body + CRC). Decode returns
// false on any framing or consistency violation without touching `*out`,
// whose blobs point into `buffer`.
void EncodeCoordinatorSnapshot(const CoordinatorSnapshot& snapshot,
                               std::vector<uint8_t>* out);
bool DecodeCoordinatorSnapshot(std::span<const uint8_t> buffer,
                               CoordinatorSnapshotView* out);

// The snapshot file of the state directory `state_dir`.
inline std::string SnapshotPath(const std::string& state_dir) {
  return state_dir + "/snapshot.bin";
}

// Atomically replaces `path` with the encoded snapshot through
// ReplaceFile (persist/file.h), streaming the pieces under a running CRC.
// The file and the directory are always fsynced, whatever the journal's
// fsync setting. The snapshot metrics count it only once it is in place.
// Returns false with `*error` naming the path on I/O failure, the old
// snapshot untouched.
bool WriteSnapshotFile(const std::string& path,
                       const CoordinatorSnapshot& snapshot,
                       std::string* error);

// Loads `path` into `*image` and decodes it in place into `*out`, whose
// blobs point into `*image`. A missing file is success with `*found` set
// to false (fresh state directory). Corruption is an error — a
// coordinator must not silently start from scratch when its ledger exists
// but is unreadable.
bool LoadSnapshotFile(const std::string& path, std::vector<uint8_t>* image,
                      CoordinatorSnapshotView* out, bool* found,
                      std::string* error);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_SNAPSHOT_H_
