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
#include <tuple>
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
static_assert(MeterChargeRun::kFrameBytes ==
              kFrameHeaderSize + std::tuple_size_v<MeterChargePayload> +
                  kFrameCrcSize);

bool ValidRecordType(uint8_t type) {
  return type >= static_cast<uint8_t>(JournalRecordType::kMeterCharge) &&
         type <= static_cast<uint8_t>(JournalRecordType::kCampaignTick);
}

std::string IoError(const std::string& action, const std::string& path) {
  return action + " " + path + ": " + std::strerror(errno);
}

// Stores a frame header at `at` and returns the address past it.
uint8_t* StoreFrameHeader(JournalRecordType type, uint64_t seq,
                          size_t payload_size, uint8_t* at) {
  at[0] = kJournalFormatVersion;
  at[1] = static_cast<uint8_t>(type);
  at = bytes::StoreUint64(seq, at + 2);
  return bytes::StoreUint32(static_cast<uint32_t>(payload_size), at);
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
                        std::span<const uint8_t> payload,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  const size_t start = out->size();
  out->resize(start + kFrameHeaderSize + payload.size() + kFrameCrcSize);
  uint8_t* const frame = out->data() + start;
  uint8_t* at = StoreFrameHeader(type, seq, payload.size(), frame);
  if (!payload.empty()) std::memcpy(at, payload.data(), payload.size());
  at += payload.size();
  bytes::StoreUint32(bytes::Crc32(frame, static_cast<size_t>(at - frame)), at);
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
                           std::span<const uint8_t> payload) {
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

bool JournalWriter::Sync() {
  BITPUSH_CHECK(fd_ >= 0) << "journal not open";
  return ::fsync(fd_) == 0;
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
                                    std::span<const uint8_t> payload) {
  // The header and the CRC are written around the payload, which is
  // gathered from where it lies.
  uint8_t header[kFrameHeaderSize];
  uint8_t crc[kFrameCrcSize];
  StoreFrameHeader(type, next_seq_, payload.size(), header);
  bytes::StoreUint32(
      bytes::Crc32Extend(bytes::Crc32(header, kFrameHeaderSize),
                         payload.data(), payload.size()),
      crc);
  iovec parts[3] = {
      {header, kFrameHeaderSize},
      {const_cast<uint8_t*>(payload.data()), payload.size()},
      {crc, kFrameCrcSize},
  };
  return WriteFully(fd_, parts, 3);
}

JournalFrameWalker::JournalFrameWalker(std::span<const uint8_t> image,
                                       std::optional<uint64_t> first_seq)
    : image_(image), first_seq_(first_seq), next_seq_(first_seq.value_or(0)) {}

bool JournalFrameWalker::Next(JournalFrame* frame) {
  BITPUSH_CHECK(frame != nullptr);
  while (error_.empty() && !torn_tail_ && offset_ < image_.size()) {
    const uint8_t* const at = image_.data() + offset_;
    const size_t left = image_.size() - offset_;
    if (left < kFrameHeaderSize) {
      torn_tail_ = true;  // the image ends inside a frame header
      break;
    }
    const uint8_t type = at[1];
    const uint64_t seq = bytes::LoadUint64(at + 2);
    const uint32_t length = bytes::LoadUint32(at + 10);
    if (at[0] != kJournalFormatVersion) {
      error_ = "journal record with unknown format version";
      break;
    }
    if (!ValidRecordType(type)) {
      error_ = "journal record with unknown type";
      break;
    }
    if (!first_seq_.has_value()) {
      first_seq_ = seq;
      next_seq_ = seq;
    }
    if (left - kFrameHeaderSize < static_cast<size_t>(length) + kFrameCrcSize) {
      torn_tail_ = true;  // the image ends inside the payload or CRC
      break;
    }
    const size_t crc_at = kFrameHeaderSize + length;
    if (bytes::Crc32(at, crc_at) != bytes::LoadUint32(at + crc_at)) {
      // A complete frame with a bad CRC is real corruption, not a torn
      // write: fail closed.
      error_ = "journal record failed CRC check";
      break;
    }
    if (have_previous_ && seq != previous_seq_ + 1) {
      error_ = "journal sequence gap or duplicate";
      break;
    }
    have_previous_ = true;
    previous_seq_ = seq;
    const size_t begin = offset_;
    offset_ += crc_at + kFrameCrcSize;
    if (seq < *first_seq_) {
      ++stale_frames_;
      continue;
    }
    if (!kept_any_ && seq != *first_seq_) {
      // Records between the snapshot and this one are missing entirely.
      error_ = "journal starts past the snapshot sequence";
      break;
    }
    kept_any_ = true;
    next_seq_ = seq + 1;
    frame->seq = seq;
    frame->type = static_cast<JournalRecordType>(type);
    frame->payload = std::span<const uint8_t>(at + kFrameHeaderSize, length);
    frame->begin = begin;
    frame->end = offset_;
    return true;
  }
  return false;
}

namespace {

// Both record readers: the walker's frames, each payload copied out.
// `first_seq` is the sequence number the first kept record must carry;
// unset, the first frame's is taken.
bool ReadJournalFile(const std::string& path,
                     std::optional<uint64_t> first_seq,
                     JournalReadResult* out, std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> image;
  JournalReadResult result;
  // A missing journal parses as an empty one.
  if (!ReadWholeFile(path, &image, &result.found, error)) return false;
  JournalFrameWalker walker(image, first_seq);
  JournalFrame frame;
  while (walker.Next(&frame)) {
    result.records.push_back(JournalRecord{
        frame.seq, frame.type,
        std::vector<uint8_t>(frame.payload.begin(), frame.payload.end())});
  }
  if (!walker.error().empty()) {
    *error = walker.error();
    return false;
  }
  result.torn_tail = walker.torn_tail();
  result.clean_length = walker.clean_length();
  result.next_seq = walker.next_seq();
  result.stale_records = walker.stale_frames();
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
                             MeterChargePayload* out) {
  BITPUSH_CHECK(out != nullptr);
  uint8_t* at = bytes::StoreInt64(record.client_id, out->data());
  at = bytes::StoreInt64(record.value_id, at);
  at = bytes::StoreDouble(record.epsilon, at);
  *at = record.granted ? 1 : 0;
}

void EncodeMeterChargeRecord(const MeterChargeRecord& record,
                             std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  MeterChargePayload payload;
  EncodeMeterChargeRecord(record, &payload);
  const size_t at = out->size();
  out->resize(at + payload.size());
  std::memcpy(out->data() + at, payload.data(), payload.size());
}

bool DecodeMeterChargeRecord(std::span<const uint8_t> payload,
                             MeterChargeRecord* out) {
  BITPUSH_CHECK(out != nullptr);
  // Fixed size: one bounds check, then inline loads.
  if (payload.size() != std::tuple_size_v<MeterChargePayload>) return false;
  const uint8_t* const at = payload.data();
  const uint8_t granted = at[24];
  if (granted > 1) return false;
  MeterChargeRecord record;
  record.client_id = bytes::LoadInt64(at);
  record.value_id = bytes::LoadInt64(at + 8);
  record.epsilon = bytes::LoadDouble(at + 16);
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

void MeterChargeRun::Append(const JournalFrame& frame) {
  BITPUSH_CHECK(frame.type == JournalRecordType::kMeterCharge &&
                frame.payload.size() ==
                    std::tuple_size_v<MeterChargePayload>);
  if (count_ == 0) {
    first_payload_ = frame.payload.data();
  } else {
    BITPUSH_CHECK(frame.payload.data() ==
                  first_payload_ + count_ * kFrameBytes)
        << "charge frames of a run must be consecutive";
  }
  ++count_;
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

bool DecodeRoundClosedRecord(std::span<const uint8_t> payload,
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

bool DecodeQueryFinishedRecord(std::span<const uint8_t> payload,
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

bool DecodeCampaignTickRecord(std::span<const uint8_t> payload,
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
