#include "persist/journal.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/file.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Journal I/O counters are kVolatile: a recovered run re-appends only the
// records the crash lost, so its totals legitimately differ from a clean
// run's.
void ObserveJournalAppend(size_t frame_bytes) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* records = registry.GetCounter(
      "bitpush_journal_records_total", "Journal records appended.",
      obs::Determinism::kVolatile);
  static obs::Counter* bytes = registry.GetCounter(
      "bitpush_journal_bytes_total", "Journal frame bytes written.",
      obs::Determinism::kVolatile);
  records->Increment();
  bytes->Add(static_cast<int64_t>(frame_bytes));
}

void ObserveJournalCommit(bool fsynced) {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Counter* commits = registry.GetCounter(
      "bitpush_journal_commits_total",
      "Journal group commits that made appended records durable.",
      obs::Determinism::kVolatile);
  static obs::Counter* fsyncs = registry.GetCounter(
      "bitpush_journal_fsyncs_total", "Journal fsync calls issued.",
      obs::Determinism::kVolatile);
  commits->Increment();
  if (fsynced) fsyncs->Increment();
}

// version + type + seq + len.
constexpr size_t kFrameHeaderSize = 1 + 1 + 8 + 4;
constexpr size_t kFrameCrcSize = 4;

bool ValidRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kMeterCharge) &&
         type <= static_cast<uint8_t>(JournalRecordType::kCampaignTick);
}

std::string IoError(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

void PutFrameHeader(JournalRecordType type, uint64_t seq, size_t payload_size,
                    std::vector<uint8_t>* out) {
  bytes::PutByte(kJournalFormatVersion, out);
  bytes::PutByte(static_cast<uint8_t>(type), out);
  bytes::PutUint64(seq, out);
  bytes::PutUint32(static_cast<uint32_t>(payload_size), out);
}

// Writes every byte `parts` describe, resuming after short writes and
// EINTR. Returns false on any other write error.
bool WriteFully(int fd, iovec* parts, int count) {
  while (count > 0) {
    const ssize_t written = ::writev(fd, parts, count);
    if (written < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    size_t left = static_cast<size_t>(written);
    while (count > 0 && left >= parts->iov_len) {
      left -= parts->iov_len;
      ++parts;
      --count;
    }
    if (count > 0) {
      parts->iov_base = static_cast<uint8_t*>(parts->iov_base) + left;
      parts->iov_len -= left;
    }
  }
  return true;
}

}  // namespace

void AppendJournalFrame(JournalRecordType type, uint64_t seq,
                        const std::vector<uint8_t>& payload,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  const size_t start = out->size();
  PutFrameHeader(type, seq, payload.size(), out);
  out->insert(out->end(), payload.begin(), payload.end());
  const uint32_t crc = bytes::Crc32(out->data() + start, out->size() - start);
  bytes::PutUint32(crc, out);
}

bool JournalWriter::Open(const std::string& path, uint64_t next_seq,
                         std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK(fd_ < 0) << "journal already open";
  fd_ = ::open(path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0666);
  if (fd_ < 0) {
    *error = IoError("open journal", path);
    return false;
  }
  buffer_.reserve(kBufferBytes);
  next_seq_ = next_seq;
  return true;
}

bool JournalWriter::Append(JournalRecordType type,
                           const std::vector<uint8_t>& payload) {
  BITPUSH_CHECK(fd_ >= 0) << "journal not open";
  const size_t frame_bytes =
      kFrameHeaderSize + payload.size() + kFrameCrcSize;
  if (buffer_.size() + frame_bytes > kBufferBytes && !Flush()) return false;
  if (frame_bytes <= kBufferBytes) {
    AppendJournalFrame(type, next_seq_, payload, &buffer_);
  } else if (!WriteLargeFrame(type, payload)) {
    return false;
  }
  ObserveJournalAppend(frame_bytes);
  ++next_seq_;
  ++appended_;
  ++uncommitted_records_;
  uncommitted_bytes_ += static_cast<int64_t>(frame_bytes);
  if (crash_after_records_ > 0 && appended_ >= crash_after_records_) {
    // Crash harness: die the way SIGKILL would — no flushing, no handlers.
    // The buffered frames are lost; the file keeps what reached it.
    std::_Exit(137);
  }
  return true;
}

bool JournalWriter::Commit() {
  BITPUSH_CHECK(fd_ >= 0) << "journal not open";
  if (uncommitted_records_ == 0) return true;
  obs::Span span("journal.commit", "persist");
  span.AddNumeric("records", static_cast<double>(uncommitted_records_));
  span.AddNumeric("bytes", static_cast<double>(uncommitted_bytes_));
  if (!Flush()) return false;
  if (fsync_ && ::fsync(fd_) != 0) return false;
  ObserveJournalCommit(fsync_);
  uncommitted_records_ = 0;
  uncommitted_bytes_ = 0;
  return true;
}

bool JournalWriter::Close() {
  if (fd_ < 0) return true;
  const bool committed = Commit();
  const bool closed = ::close(fd_) == 0;
  fd_ = -1;
  buffer_.clear();
  uncommitted_records_ = 0;
  uncommitted_bytes_ = 0;
  return committed && closed;
}

bool JournalWriter::Flush() {
  if (buffer_.empty()) return true;
  iovec part{buffer_.data(), buffer_.size()};
  if (!WriteFully(fd_, &part, 1)) return false;
  buffer_.clear();
  return true;
}

bool JournalWriter::WriteLargeFrame(JournalRecordType type,
                                    const std::vector<uint8_t>& payload) {
  // The empty buffer holds the header and the CRC; the payload is gathered
  // from where it lies.
  PutFrameHeader(type, next_seq_, payload.size(), &buffer_);
  const uint32_t crc =
      bytes::Crc32Extend(bytes::Crc32(buffer_), payload.data(), payload.size());
  bytes::PutUint32(crc, &buffer_);
  iovec parts[3] = {
      {buffer_.data(), kFrameHeaderSize},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
      {buffer_.data() + kFrameHeaderSize, kFrameCrcSize},
  };
  const bool wrote = WriteFully(fd_, parts, 3);
  buffer_.clear();
  return wrote;
}

namespace {

// The one journal reader behind both entry points. `first_seq` is the
// sequence number the first kept record must carry; unset, the first
// frame's is taken.
bool ReadJournalFile(const std::string& path,
                     std::optional<uint64_t> first_seq,
                     JournalReadResult* out, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool found = false;  // a missing journal parses as an empty one
  if (!ReadWholeFile(path, &data, &found, error)) return false;

  JournalReadResult result;
  result.next_seq = first_seq.value_or(0);
  size_t offset = 0;
  uint64_t previous_seq = 0;
  bool have_previous = false;
  while (offset < data.size()) {
    size_t cursor = offset;
    uint8_t version = 0;
    uint8_t type = 0;
    uint64_t seq = 0;
    uint32_t length = 0;
    if (!bytes::GetByte(data, &cursor, &version) ||
        !bytes::GetByte(data, &cursor, &type) ||
        !bytes::GetUint64(data, &cursor, &seq) ||
        !bytes::GetUint32(data, &cursor, &length)) {
      result.torn_tail = true;  // file ends inside a frame header
      break;
    }
    if (version != kJournalFormatVersion) {
      *error = "journal record with unknown format version";
      return false;
    }
    if (!ValidRecordType(type)) {
      *error = "journal record with unknown type";
      return false;
    }
    if (!first_seq.has_value()) {
      first_seq = seq;
      result.next_seq = seq;
    }
    if (data.size() - cursor < static_cast<size_t>(length) + kFrameCrcSize) {
      result.torn_tail = true;  // file ends inside the payload or CRC
      break;
    }
    const uint32_t computed_crc =
        bytes::Crc32(data.data() + offset, kFrameHeaderSize + length);
    cursor += length;
    uint32_t stored_crc = 0;
    if (!bytes::GetUint32(data, &cursor, &stored_crc) ||
        computed_crc != stored_crc) {
      // A complete frame with a bad CRC is real corruption, not a torn
      // write: fail closed.
      *error = "journal record failed CRC check";
      return false;
    }
    if (have_previous && seq != previous_seq + 1) {
      *error = "journal sequence gap or duplicate";
      return false;
    }
    have_previous = true;
    previous_seq = seq;
    if (seq >= *first_seq) {
      if (result.records.empty() && seq != *first_seq) {
        // Records between the snapshot and this one are missing entirely.
        *error = "journal starts past the snapshot sequence";
        return false;
      }
      JournalRecord record;
      record.seq = seq;
      record.type = static_cast<JournalRecordType>(type);
      record.payload.assign(
          data.begin() + static_cast<ptrdiff_t>(offset + kFrameHeaderSize),
          data.begin() +
              static_cast<ptrdiff_t>(offset + kFrameHeaderSize + length));
      result.records.push_back(std::move(record));
      result.next_seq = seq + 1;
    }
    offset = cursor;
    result.clean_length = offset;
  }
  *out = std::move(result);
  return true;
}

}  // namespace

bool ReadJournal(const std::string& path, uint64_t expected_first_seq,
                 JournalReadResult* out, std::string* error) {
  return ReadJournalFile(path, expected_first_seq, out, error);
}

bool ReadJournalFromFirstFrame(const std::string& path,
                               JournalReadResult* out, std::string* error) {
  return ReadJournalFile(path, std::nullopt, out, error);
}

bool ReplaceJournal(const std::string& path,
                    const std::vector<JournalRecord>& records, bool sync,
                    std::string* error) {
  std::vector<uint8_t> bytes;
  for (const JournalRecord& record : records) {
    AppendJournalFrame(record.type, record.seq, record.payload, &bytes);
  }
  return ReplaceFile(path, bytes, sync, error);
}

bool TruncateJournalToRecords(const std::string& path, size_t keep_records,
                              std::string* error) {
  JournalReadResult journal;
  if (!ReadJournalFromFirstFrame(path, &journal, error)) return false;
  journal.records.resize(std::min(keep_records, journal.records.size()));
  return ReplaceJournal(path, journal.records, /*sync=*/false, error);
}

bool TearJournalTail(const std::string& path, size_t bytes,
                     std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool found = false;
  if (!ReadWholeFile(path, &data, &found, error)) return false;
  if (!found) {
    *error = "tear journal " + path + ": no such file";
    return false;
  }
  data.resize(data.size() > bytes ? data.size() - bytes : 0);
  return ReplaceFile(path, data, /*sync=*/false, error);
}

// ---------------------------------------------------------------------------
// Record payload codecs.

void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.client_id, out);
  bytes::PutInt64(record.value_id, out);
  bytes::PutDouble(record.epsilon, out);
  bytes::PutByte(record.granted ? 1 : 0, out);
}

bool DecodeMeterChargeRecord(const std::vector<uint8_t>& payload,
                             MeterChargeRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  MeterChargeRecord record;
  uint8_t granted = 0;
  if (!bytes::GetInt64(payload, &cursor, &record.client_id) ||
      !bytes::GetInt64(payload, &cursor, &record.value_id) ||
      !bytes::GetDouble(payload, &cursor, &record.epsilon) ||
      !bytes::GetByte(payload, &cursor, &granted) ||
      cursor != payload.size()) {
    return false;
  }
  if (granted > 1) return false;
  record.granted = granted == 1;
  // A *granted* charge never carries an invalid epsilon — the meter denies
  // non-finite and negative values before journaling — so such a record is
  // corruption. A denied record keeps the offending epsilon verbatim, so
  // restoring it through the meter denies it again.
  if (record.granted &&
      (!std::isfinite(record.epsilon) || record.epsilon < 0.0)) {
    return false;
  }
  *out = record;
  return true;
}

void EncodeRoundClosedRecord(const RoundClosedRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
  bytes::PutInt64(record.query_index, out);
  bytes::PutInt64(record.value_id, out);
  bytes::PutInt64(record.round_id, out);
  bytes::PutUint64(record.cohort_digest, out);
  EncodeRoundOutcome(record.outcome, out);
}

bool DecodeRoundClosedRecord(const std::vector<uint8_t>& payload,
                             RoundClosedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  RoundClosedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      !bytes::GetInt64(payload, &cursor, &record.query_index) ||
      !bytes::GetInt64(payload, &cursor, &record.value_id) ||
      !bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !bytes::GetUint64(payload, &cursor, &record.cohort_digest) ||
      !DecodeRoundOutcome(payload, &cursor, &record.outcome) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0 || record.query_index < 0 || record.round_id < 0) {
    return false;
  }
  *out = std::move(record);
  return true;
}

void EncodeQueryFinishedRecord(const QueryFinishedRecord& record,
                               std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
  bytes::PutInt64(record.query_index, out);
  EncodeCampaignTickResult(record.result, out);
  bytes::PutDoubleVector(record.final_bit_means, out);
}

bool DecodeQueryFinishedRecord(const std::vector<uint8_t>& payload,
                               QueryFinishedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  QueryFinishedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      !bytes::GetInt64(payload, &cursor, &record.query_index) ||
      !DecodeCampaignTickResult(payload, &cursor, &record.result) ||
      !bytes::GetDoubleVector(payload, &cursor, &record.final_bit_means) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0 || record.query_index < 0 ||
      record.tick != record.result.tick) {
    return false;
  }
  for (const double mean : record.final_bit_means) {
    if (std::isnan(mean)) return false;
  }
  *out = std::move(record);
  return true;
}

void EncodeCampaignTickRecord(const CampaignTickRecord& record,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
}

bool DecodeCampaignTickRecord(const std::vector<uint8_t>& payload,
                              CampaignTickRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  CampaignTickRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0) return false;
  *out = record;
  return true;
}

}  // namespace bitpush
