#include "persist/journal.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "federated/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"
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
  return type >= static_cast<uint8_t>(JournalRecordType::kQueryStarted) &&
         type <= static_cast<uint8_t>(JournalRecordType::kResilienceEvent);
}

std::string IoError(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

void PutFrameHeader(JournalRecordType type, uint64_t seq, size_t payload_size,
                    std::vector<uint8_t>* out) {
  bytes::PutByte(kWireFormatVersion, out);
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

bool ReadJournal(const std::string& path, uint64_t expected_first_seq,
                 JournalReadResult* out, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  JournalReadResult result;
  result.next_seq = expected_first_seq;

  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (errno == ENOENT) {
      // No journal yet: an empty one.
      *out = std::move(result);
      return true;
    }
    *error = IoError("open journal", path);
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
    *error = IoError("read journal", path);
    return false;
  }

  size_t offset = 0;
  uint64_t previous_seq = 0;
  bool have_previous = false;
  while (offset < data.size()) {
    if (data.size() - offset < kFrameHeaderSize) {
      result.torn_tail = true;  // file ends inside a frame header
      break;
    }
    size_t cursor = offset;
    uint8_t version = 0;
    uint8_t type = 0;
    uint64_t seq = 0;
    uint32_t length = 0;
    BITPUSH_CHECK(bytes::GetByte(data, &cursor, &version));
    BITPUSH_CHECK(bytes::GetByte(data, &cursor, &type));
    BITPUSH_CHECK(bytes::GetUint64(data, &cursor, &seq));
    BITPUSH_CHECK(bytes::GetUint32(data, &cursor, &length));
    if (version != kWireFormatVersion) {
      *error = "journal record with unknown format version";
      return false;
    }
    if (!ValidRecordType(type)) {
      *error = "journal record with unknown type";
      return false;
    }
    if (data.size() - cursor < static_cast<size_t>(length) + kFrameCrcSize) {
      result.torn_tail = true;  // file ends inside the payload or CRC
      break;
    }
    const uint32_t computed_crc =
        bytes::Crc32(data.data() + offset, kFrameHeaderSize + length);
    cursor += length;
    uint32_t stored_crc = 0;
    BITPUSH_CHECK(bytes::GetUint32(data, &cursor, &stored_crc));
    if (computed_crc != stored_crc) {
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
    if (seq >= expected_first_seq) {
      if (result.records.empty() && seq != expected_first_seq) {
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

bool TruncateJournalToRecords(const std::string& path, size_t keep_records,
                              std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  JournalReadResult journal;
  if (!ReadJournal(path, 0, &journal, error)) return false;
  std::vector<uint8_t> prefix;
  const size_t keep = std::min(keep_records, journal.records.size());
  for (size_t i = 0; i < keep; ++i) {
    AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                       journal.records[i].payload, &prefix);
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    *error = IoError("truncate journal", path);
    return false;
  }
  const bool wrote =
      prefix.empty() ||
      std::fwrite(prefix.data(), 1, prefix.size(), file) == prefix.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    *error = IoError("truncate journal", path);
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Record payload codecs.

void EncodeQueryStartedRecord(const QueryStartedRecord& record,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.tick, out);
  bytes::PutInt64(record.query_index, out);
  bytes::PutInt64(record.value_id, out);
}

bool DecodeQueryStartedRecord(const std::vector<uint8_t>& payload,
                              QueryStartedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  QueryStartedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.tick) ||
      !bytes::GetInt64(payload, &cursor, &record.query_index) ||
      !bytes::GetInt64(payload, &cursor, &record.value_id) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.tick < 0 || record.query_index < 0) return false;
  *out = record;
  return true;
}

void EncodeCohortAssignedRecord(const CohortAssignedRecord& record,
                                std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  bytes::PutInt64Vector(record.client_ids, out);
}

bool DecodeCohortAssignedRecord(const std::vector<uint8_t>& payload,
                                CohortAssignedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  CohortAssignedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !bytes::GetInt64Vector(payload, &cursor, &record.client_ids) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0) return false;
  *out = std::move(record);
  return true;
}

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
  // corruption. A denied record keeps the offending epsilon verbatim so
  // replay can verify it bit-for-bit against the re-executed attempt.
  if (record.granted &&
      (!std::isfinite(record.epsilon) || record.epsilon < 0.0)) {
    return false;
  }
  *out = record;
  return true;
}

void EncodeReportAcceptedRecord(const ReportAcceptedRecord& record,
                                std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  bytes::PutInt64(record.report.client_id, out);
  bytes::PutInt64(record.report.bit_index, out);
  bytes::PutByte(static_cast<uint8_t>(record.report.bit), out);
}

bool DecodeReportAcceptedRecord(const std::vector<uint8_t>& payload,
                                ReportAcceptedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  ReportAcceptedRecord record;
  int64_t bit_index = 0;
  uint8_t bit = 0;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !bytes::GetInt64(payload, &cursor, &record.report.client_id) ||
      !bytes::GetInt64(payload, &cursor, &bit_index) ||
      !bytes::GetByte(payload, &cursor, &bit) || cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0 || bit_index < 0 || bit_index >= kMaxBits ||
      bit > 1) {
    return false;
  }
  record.report.bit_index = static_cast<int>(bit_index);
  record.report.bit = bit;
  *out = record;
  return true;
}

void EncodeRoundClosedRecord(const RoundClosedRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(record.round_id, out);
  EncodeRoundOutcome(record.outcome, out);
}

bool DecodeRoundClosedRecord(const std::vector<uint8_t>& payload,
                             RoundClosedRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  RoundClosedRecord record;
  if (!bytes::GetInt64(payload, &cursor, &record.round_id) ||
      !DecodeRoundOutcome(payload, &cursor, &record.outcome) ||
      cursor != payload.size()) {
    return false;
  }
  if (record.round_id < 0) return false;
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

void EncodeResilienceEventRecord(const ResilienceEventRecord& record,
                                 std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  EncodeResilienceEvent(record.event, out);
}

bool DecodeResilienceEventRecord(const std::vector<uint8_t>& payload,
                                 ResilienceEventRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  ResilienceEventRecord record;
  if (!DecodeResilienceEvent(payload, &cursor, &record.event) ||
      cursor != payload.size()) {
    return false;
  }
  *out = record;
  return true;
}

}  // namespace bitpush
