// Write-ahead journal for the durable coordinator.
//
// The journal holds exactly what recovery restores: every privacy-meter
// charge, each closed round's outcome, each finished query's result and
// each closed campaign tick — four record types, each one length-prefixed
// and CRC-protected. A meter charge is appended *before* the ledger
// changes. Records are group-committed: they become durable together at
// the writer's next Commit(), which the owner issues before anything
// derived from them leaves the process. Recovery (src/persist/recovery.h)
// restores the journal on top of the latest snapshot. Per-report bits,
// cohort assignments and retry decisions are not journaled: a closed round
// is restored from its outcome, and an open one re-executes.
//
// Frame layout (little-endian):
//
//   [version:1][type:1][seq:8][len:4][payload:len][crc32:4]
//
// `version` is kJournalFormatVersion, the journal's own format byte
// (wire frames keep kWireFormatVersion, snapshots kSnapshotFormatVersion);
// `seq` numbers records contiguously across the life of the state
// directory (snapshots record where the journal resumes); the CRC covers
// version through payload.
//
// Every whole-file read and rewrite of the journal goes through
// persist/file.h; JournalWriter below owns the appends. One parser,
// JournalFrameWalker, reads every journal: it walks the frames in place in
// the file image, and ReadJournal, the doctor, the cut tools and recovery
// all read through it.
//
// Read semantics distinguish the one corruption a crash legitimately
// produces from everything else. A file that *ends* mid-frame is a torn
// tail: the clean prefix is used and the torn bytes are truncated before
// the journal is appended to again. Any complete frame that fails
// validation — bad CRC, unknown version or type, out-of-order seq — is a
// hard error: recovery fails closed rather than guess, because a record
// silently dropped here could be a privacy-meter charge.

#ifndef BITPUSH_PERSIST_JOURNAL_H_
#define BITPUSH_PERSIST_JOURNAL_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <vector>

#include "federated/campaign.h"
#include "federated/server.h"
#include "util/bytes.h"

namespace bitpush {

// The journal frame's format byte. Version 1 framed the journal with the
// wire format byte and eight record types, among them per-report and
// per-decision records; reading rejects it.
inline constexpr uint8_t kJournalFormatVersion = 2;

enum class JournalRecordType : uint8_t {
  kMeterCharge = 1,
  kRoundClosed = 2,
  kQueryFinished = 3,
  kCampaignTick = 4,
};

struct JournalRecord {
  uint64_t seq = 0;
  JournalRecordType type = JournalRecordType::kMeterCharge;
  std::vector<uint8_t> payload;
};

// Appends one complete frame for (type, seq, payload) to `out`: one copy
// of the payload and one CRC pass. JournalWriter frames every record this
// way; exposed so tests can build journals (including deliberately
// corrupted ones) without going through a writer.
void AppendJournalFrame(JournalRecordType type, uint64_t seq,
                        std::span<const uint8_t> payload,
                        std::vector<uint8_t>* out);

// Append-only journal writer with group commit. Append() frames a record
// straight into an owned buffer of at most kBufferBytes; nothing it holds
// is durable until Commit() writes the buffer with one write() and, with
// fsync on, issues one fsync. A frame that would overflow the buffer
// writes it out first (no fsync), and a frame larger than the buffer is
// written straight from its payload. The file therefore receives exactly
// the frames AppendJournalFrame would produce, in append order; only the
// moment they become durable depends on the commit points, which the owner
// chooses (DurableCampaignRunner commits before anything derived from the
// records leaves the coordinator; see persist/recovery.h).
class JournalWriter {
 public:
  // Most bytes Append() holds before writing them out.
  static constexpr size_t kBufferBytes = 64 * 1024;

  JournalWriter() = default;
  ~JournalWriter() { Close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // Opens `path` for appending (creating it if needed); new records are
  // numbered from `next_seq`. Returns false with `*error` set on I/O
  // failure.
  bool Open(const std::string& path, uint64_t next_seq, std::string* error);

  // Frames one record into the buffer; it is durable only after the next
  // Commit(). Returns false on I/O failure of a write a full buffer forced.
  // Allocates nothing: a payload encoded on the stack (a meter charge) is
  // copied once, into the buffer.
  bool Append(JournalRecordType type, std::span<const uint8_t> payload);

  // Makes every appended record durable: writes the buffer out, then
  // fsyncs unless fsync is disabled. A no-op when nothing was appended
  // since the last commit. Returns false on I/O failure.
  bool Commit();

  // Fsyncs the file as it stands, appended records and all. Open calls it
  // on a journal it keeps instead of rewriting (persist/recovery.h).
  // Returns false on I/O failure.
  bool Sync();

  // Commits whatever is pending and closes the file. Returns false if the
  // final commit or the close failed.
  bool Close();
  uint64_t next_seq() const { return next_seq_; }
  int64_t appended_records() const { return appended_; }
  // Records appended since the last commit: not yet durable.
  int64_t uncommitted_records() const { return uncommitted_records_; }

  // Disables the commit fsync (tests that write thousands of journals).
  void set_fsync(bool fsync) { fsync_ = fsync; }

  // Crash harness: after `n` successful appends the process exits
  // immediately with status 137 (the SIGKILL status) without writing the
  // buffer, so the file keeps only what earlier commits and buffer-full
  // writes put there — the records a kill at that instant would leave.
  // 0 disables.
  void set_crash_after_records(int64_t n) { crash_after_records_ = n; }

 private:
  // Writes the buffered frames out and empties the buffer.
  bool Flush();
  // Writes one frame too large for the buffer (which is empty) with its
  // payload gathered in place.
  bool WriteLargeFrame(JournalRecordType type,
                       std::span<const uint8_t> payload);

  int fd_ = -1;
  std::vector<uint8_t> buffer_;
  uint64_t next_seq_ = 0;
  int64_t appended_ = 0;
  int64_t uncommitted_records_ = 0;
  int64_t uncommitted_bytes_ = 0;
  int64_t crash_after_records_ = 0;
  bool fsync_ = true;
};

// One frame of a journal file image as JournalFrameWalker yields it: its
// payload in place in the image, and the frame's byte range there.
struct JournalFrame {
  uint64_t seq = 0;
  JournalRecordType type = JournalRecordType::kMeterCharge;
  std::span<const uint8_t> payload;
  // Offsets of the frame's first byte and of the byte after its CRC.
  size_t begin = 0;
  size_t end = 0;
};

// The one journal parser: walks the frames of a journal file image in
// place, validating version, type, length, CRC and sequence, and tells the
// torn tail and the stale prefix apart from corruption (read semantics
// above). It copies nothing.
class JournalFrameWalker {
 public:
  // `first_seq` is the sequence number the first kept frame must carry:
  // frames below it are stale and skipped, and a journal whose first kept
  // frame is past it fails. Unset, the first frame's is taken. `image`
  // must outlive the walker and the frames it yields.
  JournalFrameWalker(std::span<const uint8_t> image,
                     std::optional<uint64_t> first_seq);

  // Moves to the next kept frame: true with `*frame` set, false at the
  // end of the clean prefix or at a frame that fails validation, which
  // sets error().
  bool Next(JournalFrame* frame);

  // Why the walk stopped short; empty while every frame was valid.
  const std::string& error() const { return error_; }
  // The image ends mid-frame (the expected crash artifact).
  bool torn_tail() const { return torn_tail_; }
  // Byte length of the valid frames walked so far.
  size_t clean_length() const { return offset_; }
  // Sequence number the next appended record should carry.
  uint64_t next_seq() const { return next_seq_; }
  // Valid frames below the first kept sequence number, skipped.
  size_t stale_frames() const { return stale_frames_; }

 private:
  std::span<const uint8_t> image_;
  std::optional<uint64_t> first_seq_;
  size_t offset_ = 0;
  bool have_previous_ = false;
  uint64_t previous_seq_ = 0;
  bool kept_any_ = false;
  uint64_t next_seq_ = 0;
  size_t stale_frames_ = 0;
  bool torn_tail_ = false;
  std::string error_;
};

struct JournalReadResult {
  // Valid records with seq >= expected_first_seq, in order. Records below
  // expected_first_seq (left behind when a crash lands between a snapshot
  // rename and the journal truncation that follows it) are dropped.
  std::vector<JournalRecord> records;
  // The file ended mid-frame (the expected crash artifact). The records
  // above are the clean prefix; re-open the journal only after truncating
  // the file to clean_length.
  bool torn_tail = false;
  // Byte length of the valid frame prefix.
  size_t clean_length = 0;
  // Sequence number the next appended record should carry.
  uint64_t next_seq = 0;
  // The file exists; a missing journal reads as an empty one.
  bool found = false;
  // Valid records below expected_first_seq, dropped from `records`.
  size_t stale_records = 0;
};

// The journal file of the state directory `state_dir`.
inline std::string JournalPath(const std::string& state_dir) {
  return state_dir + "/journal.wal";
}

// Reads and validates a journal file into records, each payload copied
// out of the image (JournalFrameWalker): records below
// `expected_first_seq` (the snapshot's journal_next_seq) are stale and
// dropped, and a journal whose first kept record is past it fails. A
// missing file is an empty journal (success). Returns false with `*error`
// set on I/O failure or on any corruption that is not a torn tail: CRC
// mismatch, unknown version or record type, a duplicate / out-of-order /
// gapped sequence number.
bool ReadJournal(const std::string& path, uint64_t expected_first_seq,
                 JournalReadResult* out, std::string* error);

// The same parse for a reader that does not know the snapshot: the first
// frame's sequence number is taken as the expected one, so a journal a
// snapshot truncated reads whole. The doctor, the cut tools and the shard
// fault harness read this way. An empty journal has next_seq 0.
bool ReadJournalFromFirstFrame(const std::string& path,
                               JournalReadResult* out, std::string* error);

// Atomically replaces the journal at `path` with exactly `records`, framed
// (ReplaceFile, persist/file.h); `sync` fsyncs the file and its directory.
// The cut tools rewrite through it; recovery, which keeps frames it has in
// an image, writes their byte range instead.
bool ReplaceJournal(const std::string& path,
                    const std::vector<JournalRecord>& records, bool sync,
                    std::string* error);

// The cut tools: the disk states a crash leaves, made on purpose by tests,
// examples and the shard fault harness. A cut replaces the file, so it is
// legal only while no writer holds the journal open — an open
// JournalWriter would go on appending to the file the cut replaced. Cuts
// never fsync. Both return false with `*error` set on I/O failure.
//
// Rewrites the journal at `path` so only its first `keep_records` records
// remain — a crash that lost a durable suffix. Reads and validates the
// existing file first (ReadJournalFromFirstFrame, so a snapshot-truncated
// journal cuts too) and fails on pre-existing corruption; keeping more
// records than exist keeps them all, and a torn tail is dropped.
bool TruncateJournalToRecords(const std::string& path, size_t keep_records,
                              std::string* error);
// Chops `bytes` off the end of the journal at `path` — the torn-write
// crash artifact. A missing journal is an error.
bool TearJournalTail(const std::string& path, size_t bytes,
                     std::string* error);

// ---------------------------------------------------------------------------
// Record payloads. Each Encode appends to `out`; each Decode consumes the
// *entire* payload and returns false (leaving `*out` untouched) on
// truncation, trailing bytes, or invalid fields. Decoders read a span, so
// a payload decodes in place in the file image; a vector converts to one.

struct MeterChargeRecord {
  int64_t client_id = 0;
  int64_t value_id = 0;
  double epsilon = 0.0;
  bool granted = false;

  friend bool operator==(const MeterChargeRecord&,
                         const MeterChargeRecord&) = default;
};
void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             std::vector<uint8_t>* out);
// The same bytes (client id, value id, epsilon, granted) into a
// fixed-size array, so that a charge, the one record written per report,
// is encoded and framed without an allocation.
using MeterChargePayload = std::array<uint8_t, 8 + 8 + 8 + 1>;
void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             MeterChargePayload* out);
bool DecodeMeterChargeRecord(std::span<const uint8_t> payload,
                             MeterChargeRecord* out);

// The charges of one round as recovery holds them: a run of consecutive
// kMeterCharge frames in a journal image, each of which
// DecodeMeterChargeRecord accepted. Every charge frame has the same size,
// so the run is its first payload and a count, and a charge is read
// straight from its frame.
class MeterChargeRun {
 public:
  // Bytes from one charge payload to the next: header, payload and CRC.
  static constexpr size_t kFrameBytes =
      1 + 1 + 8 + 4 + std::tuple_size_v<MeterChargePayload> + 4;

  // Extends the run by `frame`, a kMeterCharge frame whose payload
  // DecodeMeterChargeRecord accepted, and which directly follows the
  // run's last frame in the same image.
  void Append(const JournalFrame& frame);

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  // The i-th charge, decoded from its frame (laid out as
  // EncodeMeterChargeRecord writes it).
  MeterChargeRecord operator[](size_t i) const {
    const uint8_t* const at = first_payload_ + i * kFrameBytes;
    return MeterChargeRecord{bytes::LoadInt64(at), bytes::LoadInt64(at + 8),
                             bytes::LoadDouble(at + 16), at[24] == 1};
  }

 private:
  const uint8_t* first_payload_ = nullptr;
  size_t count_ = 0;
};

// One closed round of a live query. It carries the query's coordinates,
// which recovery checks against the campaign, and a digest of the round's
// input cohort (the partition indices the round was given, in order),
// which the restored round's re-derived cohort must match.
struct RoundClosedRecord {
  int64_t tick = 0;
  int64_t query_index = 0;
  int64_t value_id = 0;
  int64_t round_id = 0;
  uint64_t cohort_digest = 0;
  RoundOutcome outcome;
};
void EncodeRoundClosedRecord(const RoundClosedRecord& record,
                             std::vector<uint8_t>* out);
bool DecodeRoundClosedRecord(std::span<const uint8_t> payload,
                             RoundClosedRecord* out);

struct QueryFinishedRecord {
  int64_t tick = 0;
  int64_t query_index = 0;
  CampaignTickResult result;
  std::vector<double> final_bit_means;
};
void EncodeQueryFinishedRecord(const QueryFinishedRecord& record,
                               std::vector<uint8_t>* out);
bool DecodeQueryFinishedRecord(std::span<const uint8_t> payload,
                               QueryFinishedRecord* out);

struct CampaignTickRecord {
  int64_t tick = 0;

  friend bool operator==(const CampaignTickRecord&,
                         const CampaignTickRecord&) = default;
};
void EncodeCampaignTickRecord(const CampaignTickRecord& record,
                              std::vector<uint8_t>* out);
bool DecodeCampaignTickRecord(std::span<const uint8_t> payload,
                              CampaignTickRecord* out);

}  // namespace bitpush

#endif  // BITPUSH_PERSIST_JOURNAL_H_
