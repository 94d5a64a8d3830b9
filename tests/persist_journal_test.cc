// Write-ahead journal and snapshot format tests: frame round-trips, group
// commit, the torn-tail-vs-hard-corruption distinction, sequence
// discipline, stale pre-snapshot prefixes, the atomic snapshot file cycle,
// and the file module under both (persist/file.h).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "federated/resilience.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "persist/file.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

class JournalFileTest : public ::testing::Test {
 protected:
  JournalFileTest() {
    dir_ = ::testing::TempDir() + "/journal_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/journal.wal";
  }
  ~JournalFileTest() override { std::filesystem::remove_all(dir_); }

  void WriteBytes(const std::vector<uint8_t>& bytes) {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!bytes.empty()) {
      // fwrite's first argument is declared nonnull; an empty vector's
      // data() may be null (truncation-to-zero cases hit this).
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                bytes.size());
    }
    std::fclose(file);
  }

  std::vector<uint8_t> ReadBytes() {
    std::vector<uint8_t> bytes;
    std::FILE* file = std::fopen(path_.c_str(), "rb");
    if (file == nullptr) return bytes;
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      bytes.insert(bytes.end(), chunk, chunk + n);
    }
    std::fclose(file);
    return bytes;
  }

  size_t RecordsOnDisk() {
    JournalReadResult result;
    std::string error;
    EXPECT_TRUE(ReadJournal(path_, 0, &result, &error)) << error;
    EXPECT_FALSE(result.torn_tail);
    return result.records.size();
  }

  std::vector<uint8_t> SampleJournal(uint64_t first_seq, int count) {
    std::vector<uint8_t> bytes;
    for (int i = 0; i < count; ++i) {
      std::vector<uint8_t> payload;
      EncodeMeterChargeRecord(MeterChargeRecord{i, i % 3, 0.5, i % 2 == 0},
                              &payload);
      AppendJournalFrame(JournalRecordType::kMeterCharge,
                         first_seq + static_cast<uint64_t>(i), payload,
                         &bytes);
    }
    return bytes;
  }

  std::string dir_;
  std::string path_;
};

TEST_F(JournalFileTest, MissingFileIsAnEmptyJournal) {
  JournalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadJournal(path_, 0, &result, &error)) << error;
  EXPECT_TRUE(result.records.empty());
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_seq, 0u);
  EXPECT_FALSE(result.found);

  WriteBytes({});
  ASSERT_TRUE(ReadJournal(path_, 0, &result, &error)) << error;
  EXPECT_TRUE(result.records.empty());
  EXPECT_TRUE(result.found);
}

TEST_F(JournalFileTest, ChargeFrameEqualsTheFramedVectorEncoding) {
  // A charge is encoded into a fixed-size array and framed by the writer
  // with one copy; its bytes are the vector encoding's, framed by
  // AppendJournalFrame.
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<MeterChargeRecord> records = {
      {0x0102030405060708, -1, 1.0, true},
      {kMin, kMax, 0.0, true},
      {kMax, kMin, 1e-300, false},
      {-7, 3, std::numeric_limits<double>::quiet_NaN(), false},
      {42, 0, -std::numeric_limits<double>::infinity(), false},
  };
  // The first payload, byte for byte: client id, value id, epsilon, granted.
  MeterChargePayload first;
  EncodeMeterChargeRecord(records[0], &first);
  EXPECT_EQ(std::vector<uint8_t>(first.begin(), first.end()),
            (std::vector<uint8_t>{0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02,
                                  0x01, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                  0xFF, 0xFF, 0x00, 0x00, 0x00, 0x00, 0x00,
                                  0x00, 0xF0, 0x3F, 0x01}));

  std::vector<uint8_t> expected;
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path_, 0x1122, &error)) << error;
    writer.set_fsync(false);
    uint64_t seq = 0x1122;
    for (const MeterChargeRecord& record : records) {
      std::vector<uint8_t> vector_payload;
      EncodeMeterChargeRecord(record, &vector_payload);
      MeterChargePayload payload;
      EncodeMeterChargeRecord(record, &payload);
      EXPECT_EQ(std::vector<uint8_t>(payload.begin(), payload.end()),
                vector_payload);
      AppendJournalFrame(JournalRecordType::kMeterCharge, seq++,
                         vector_payload, &expected);
      ASSERT_TRUE(writer.Append(JournalRecordType::kMeterCharge, payload));
    }
    ASSERT_TRUE(writer.Close());
  }
  EXPECT_EQ(ReadBytes(), expected);
  // The first frame's header: format version, type, sequence number and
  // payload length, little-endian; its CRC covers header and payload.
  ASSERT_EQ(expected.size(), records.size() * (14 + 25 + 4));
  EXPECT_EQ(std::vector<uint8_t>(expected.begin(), expected.begin() + 14),
            (std::vector<uint8_t>{kJournalFormatVersion, 0x01, 0x22, 0x11, 0,
                                  0, 0, 0, 0, 0, 25, 0, 0, 0}));
  std::vector<uint8_t> crc;
  bytes::PutUint32(bytes::Crc32(expected.data(), 14 + 25), &crc);
  EXPECT_EQ(std::vector<uint8_t>(expected.begin() + 39,
                                 expected.begin() + 43),
            crc);
}

TEST_F(JournalFileTest, WriterRoundTripsThroughReader) {
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path_, 5, &error)) << error;
    writer.set_fsync(false);
    for (int i = 0; i < 4; ++i) {
      std::vector<uint8_t> payload;
      EncodeCampaignTickRecord(CampaignTickRecord{i}, &payload);
      ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, payload));
    }
    EXPECT_EQ(writer.next_seq(), 9u);
    EXPECT_EQ(writer.appended_records(), 4);
  }
  JournalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadJournal(path_, 5, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 4u);
  EXPECT_FALSE(result.torn_tail);
  EXPECT_EQ(result.next_seq, 9u);
  for (int i = 0; i < 4; ++i) {
    const JournalRecord& record = result.records[static_cast<size_t>(i)];
    EXPECT_EQ(record.seq, 5u + static_cast<uint64_t>(i));
    EXPECT_EQ(record.type, JournalRecordType::kCampaignTick);
    CampaignTickRecord tick;
    ASSERT_TRUE(DecodeCampaignTickRecord(record.payload, &tick));
    EXPECT_EQ(tick.tick, i);
  }
}

TEST_F(JournalFileTest, AppendedRecordsReachTheFileOnlyAtCommit) {
  JournalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path_, 0, &error)) << error;
  writer.set_fsync(false);
  for (int i = 0; i < 3; ++i) {
    std::vector<uint8_t> payload;
    EncodeCampaignTickRecord(CampaignTickRecord{i}, &payload);
    ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, payload));
  }
  EXPECT_EQ(writer.uncommitted_records(), 3);
  EXPECT_EQ(RecordsOnDisk(), 0u);

  ASSERT_TRUE(writer.Commit());
  EXPECT_EQ(writer.uncommitted_records(), 0);
  EXPECT_EQ(RecordsOnDisk(), 3u);
  // Committing with nothing appended since leaves the file as it is.
  ASSERT_TRUE(writer.Commit());
  EXPECT_EQ(RecordsOnDisk(), 3u);

  std::vector<uint8_t> payload;
  EncodeCampaignTickRecord(CampaignTickRecord{3}, &payload);
  ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, payload));
  EXPECT_EQ(RecordsOnDisk(), 3u);
  ASSERT_TRUE(writer.Close());
  EXPECT_EQ(RecordsOnDisk(), 4u);
}

TEST_F(JournalFileTest, AFullBufferIsWrittenOutAtAFrameBoundary) {
  // More small records than the buffer holds: the ones that overflowed it
  // reach the file before any commit, always as whole frames, and the
  // bytes are exactly the frames AppendJournalFrame builds.
  JournalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.Open(path_, 0, &error)) << error;
  writer.set_fsync(false);
  std::vector<uint8_t> expected;
  std::vector<uint8_t> payload;
  EncodeMeterChargeRecord(MeterChargeRecord{7, 1, 0.5, true}, &payload);
  std::vector<uint8_t> one_frame;
  AppendJournalFrame(JournalRecordType::kMeterCharge, 0, payload, &one_frame);
  const int count =
      static_cast<int>(2 * JournalWriter::kBufferBytes / one_frame.size()) +
      3;
  for (int i = 0; i < count; ++i) {
    ASSERT_TRUE(writer.Append(JournalRecordType::kMeterCharge, payload));
    AppendJournalFrame(JournalRecordType::kMeterCharge,
                       static_cast<uint64_t>(i), payload, &expected);
  }
  const size_t before_commit = RecordsOnDisk();
  EXPECT_GT(before_commit, 0u);
  EXPECT_LT(before_commit, static_cast<size_t>(count));
  EXPECT_LE(ReadBytes().size(), expected.size());
  ASSERT_TRUE(writer.Commit());
  EXPECT_EQ(ReadBytes(), expected);
}

TEST_F(JournalFileTest, FrameLargerThanTheBufferRoundTrips) {
  RoundClosedRecord closed;
  closed.tick = 3;
  closed.query_index = 1;
  closed.value_id = 9;
  closed.round_id = 2;
  closed.cohort_digest = 0x0123456789abcdefULL;
  for (int64_t id = 0; id < 20000; ++id) {
    closed.outcome.assigned_clients.push_back(id * 3);
  }
  std::vector<uint8_t> large;
  EncodeRoundClosedRecord(closed, &large);
  ASSERT_GT(large.size(), JournalWriter::kBufferBytes);
  std::vector<uint8_t> small;
  EncodeCampaignTickRecord(CampaignTickRecord{0}, &small);

  std::vector<uint8_t> expected;
  {
    JournalWriter writer;
    std::string error;
    ASSERT_TRUE(writer.Open(path_, 0, &error)) << error;
    writer.set_fsync(false);
    ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, small));
    ASSERT_TRUE(writer.Append(JournalRecordType::kRoundClosed, large));
    ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, small));
    ASSERT_TRUE(writer.Commit());
  }
  AppendJournalFrame(JournalRecordType::kCampaignTick, 0, small, &expected);
  AppendJournalFrame(JournalRecordType::kRoundClosed, 1, large, &expected);
  AppendJournalFrame(JournalRecordType::kCampaignTick, 2, small, &expected);
  EXPECT_EQ(ReadBytes(), expected);

  JournalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadJournal(path_, 0, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 3u);
  RoundClosedRecord decoded;
  ASSERT_TRUE(DecodeRoundClosedRecord(result.records[1].payload, &decoded));
  EXPECT_EQ(decoded.cohort_digest, closed.cohort_digest);
  EXPECT_EQ(decoded.outcome.assigned_clients, closed.outcome.assigned_clients);
}

TEST(JournalFrameTest, Crc32ExtendContinuesACrc) {
  std::vector<uint8_t> data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<uint8_t>(i * 7));
  const uint32_t whole = bytes::Crc32(data);
  for (const size_t split : {size_t{0}, size_t{1}, size_t{150}, size_t{300}}) {
    const uint32_t head = bytes::Crc32(data.data(), split);
    EXPECT_EQ(bytes::Crc32Extend(head, data.data() + split, data.size() - split),
              whole)
        << split;
  }
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(bytes::Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                         check.size()),
            0xCBF43926u);
  EXPECT_EQ(bytes::Crc32(nullptr, 0), 0u);
}

// Pseudo-random bytes from a fixed LCG, so that every CRC test reads the
// same input.
std::vector<uint8_t> CrcTestBytes(size_t size) {
  std::vector<uint8_t> buffer(size);
  uint32_t state = 0x12345678u;
  for (uint8_t& byte : buffer) {
    state = state * 1664525u + 1013904223u;
    byte = static_cast<uint8_t>(state >> 24);
  }
  return buffer;
}

// The CRC must equal the bit-at-a-time definition on every length and at
// every alignment the eight-byte table steps and the 16-byte folds can
// meet: once on the dispatched kernel (which folds inputs of 64 bytes or
// more with carry-less multiplies where the CPU has them) and once on the
// scalar kernel's table.
TEST(Crc32Test, MatchesBitwiseReferenceAtEveryAlignment) {
  constexpr size_t kMaxLength = 4096;
  const std::vector<uint8_t> buffer = CrcTestBytes(kMaxLength + 16);
  for (const bool force_scalar : {false, true}) {
    std::optional<kernels::ScopedForceScalar> scalar;
    if (force_scalar) scalar.emplace();
    for (size_t offset = 0; offset < 16; ++offset) {
      const uint8_t* data = buffer.data() + offset;
      // The reference register of every prefix, extended one byte at a
      // time.
      uint32_t reference = 0xFFFFFFFFu;
      for (size_t length = 0; length <= kMaxLength; ++length) {
        ASSERT_EQ(bytes::Crc32(data, length), reference ^ 0xFFFFFFFFu)
            << "length " << length << " offset " << offset << " kernel "
            << kernels::ActiveKernel().name;
        if (length == kMaxLength) break;
        reference ^= data[length];
        for (int bit = 0; bit < 8; ++bit) {
          reference = (reference >> 1) ^
                      ((reference & 1u) != 0 ? 0xEDB88320u : 0u);
        }
      }
    }
  }
}

// A CRC continued from any split point equals the CRC of the whole: the
// splits at 0–130 put the head and the rest on either side of the 64-byte
// folding threshold and of every 16-byte block boundary.
TEST(Crc32Test, ExtendFromEverySplitMatchesTheWhole) {
  const std::vector<uint8_t> data = CrcTestBytes(size_t{1} << 20);
  const uint32_t whole = bytes::Crc32(data);
  {
    kernels::ScopedForceScalar scalar;
    ASSERT_EQ(bytes::Crc32(data), whole);
  }
  for (size_t split = 0; split <= 130; ++split) {
    const uint32_t head = bytes::Crc32(data.data(), split);
    ASSERT_EQ(
        bytes::Crc32Extend(head, data.data() + split, data.size() - split),
        whole)
        << "split " << split;
    // A short middle piece too: head, 0–130 bytes, then the rest.
    const size_t middle_end = 2 * split + 7;
    const uint32_t middle =
        bytes::Crc32Extend(head, data.data() + split, middle_end - split);
    ASSERT_EQ(bytes::Crc32Extend(middle, data.data() + middle_end,
                                 data.size() - middle_end),
              whole)
        << "split " << split;
  }
}

// The size of a fleet_1m shard's snapshot: the dispatched kernel equals
// the scalar one on 11 MiB, at an odd offset and with a ragged tail.
TEST(Crc32Test, ElevenMebibytesMatchTheScalarKernel) {
  const std::vector<uint8_t> data = CrcTestBytes((size_t{11} << 20) + 64);
  const uint8_t* const begin = data.data() + 3;
  const size_t size = (size_t{11} << 20) + 13;
  const kernels::KernelOps& scalar = kernels::ScalarKernel();
  EXPECT_EQ(bytes::Crc32(begin, size), scalar.crc32_extend(0, begin, size));
  EXPECT_EQ(kernels::ActiveKernel().crc32_extend(0xDEADBEEFu, begin, size),
            scalar.crc32_extend(0xDEADBEEFu, begin, size));
}

TEST_F(JournalFileTest, EveryTruncationIsATornTailOrAShorterCleanFile) {
  const std::vector<uint8_t> full = SampleJournal(0, 3);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    WriteBytes(std::vector<uint8_t>(full.begin(),
                                    full.begin() + static_cast<ptrdiff_t>(cut)));
    JournalReadResult result;
    std::string error;
    ASSERT_TRUE(ReadJournal(path_, 0, &result, &error))
        << "cut at " << cut << ": " << error;
    // The clean prefix holds only whole frames; the rest is a torn tail.
    EXPECT_EQ(result.torn_tail, cut != result.clean_length) << cut;
    EXPECT_LE(result.clean_length, cut) << cut;
    EXPECT_EQ(result.next_seq, result.records.size()) << cut;
  }
}

TEST_F(JournalFileTest, BitFlipsNeverSurviveAsCleanRecords) {
  // A flipped bit either surfaces as a hard error (CRC, version, type,
  // sequence) or — when it inflates a length field past the end of the
  // file — as a torn tail that drops the damaged frame. It must never
  // produce a full-length journal of silently altered records.
  const std::vector<uint8_t> full = SampleJournal(0, 2);
  for (size_t pos = 0; pos < full.size(); ++pos) {
    std::vector<uint8_t> corrupt = full;
    corrupt[pos] ^= 0x01;
    WriteBytes(corrupt);
    JournalReadResult result;
    std::string error;
    if (ReadJournal(path_, 0, &result, &error)) {
      EXPECT_TRUE(result.torn_tail) << "flip at " << pos;
      EXPECT_LT(result.records.size(), 2u) << "flip at " << pos;
    } else {
      EXPECT_FALSE(error.empty()) << "flip at " << pos;
    }
  }
}

TEST_F(JournalFileTest, DuplicateAndGappedSequencesRejected) {
  std::vector<uint8_t> payload;
  EncodeCampaignTickRecord(CampaignTickRecord{0}, &payload);

  std::vector<uint8_t> duplicate;
  AppendJournalFrame(JournalRecordType::kCampaignTick, 0, payload, &duplicate);
  AppendJournalFrame(JournalRecordType::kCampaignTick, 0, payload, &duplicate);
  WriteBytes(duplicate);
  JournalReadResult result;
  std::string error;
  EXPECT_FALSE(ReadJournal(path_, 0, &result, &error));

  std::vector<uint8_t> gapped;
  AppendJournalFrame(JournalRecordType::kCampaignTick, 0, payload, &gapped);
  AppendJournalFrame(JournalRecordType::kCampaignTick, 2, payload, &gapped);
  WriteBytes(gapped);
  EXPECT_FALSE(ReadJournal(path_, 0, &result, &error));
}

TEST_F(JournalFileTest, StalePreSnapshotPrefixIsSkipped) {
  // A crash between the snapshot rename and the journal truncation leaves
  // records the snapshot already covers; they are dropped, and the journal
  // resumes at the snapshot's sequence.
  WriteBytes(SampleJournal(0, 6));
  JournalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadJournal(path_, 4, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].seq, 4u);
  EXPECT_EQ(result.next_seq, 6u);
  EXPECT_EQ(result.stale_records, 4u);

  // A journal that starts *past* the snapshot sequence lost records: error.
  WriteBytes(SampleJournal(3, 2));
  EXPECT_FALSE(ReadJournal(path_, 1, &result, &error));
}

TEST(JournalPayloadTest, RecordCodecsRoundTrip) {
  {
    const MeterChargeRecord record{11, 42, 0.75, true};
    std::vector<uint8_t> payload;
    EncodeMeterChargeRecord(record, &payload);
    MeterChargeRecord decoded;
    ASSERT_TRUE(DecodeMeterChargeRecord(payload, &decoded));
    EXPECT_EQ(decoded, record);
    payload.push_back(0);  // trailing bytes must be rejected
    EXPECT_FALSE(DecodeMeterChargeRecord(payload, &decoded));
  }
  {
    RoundClosedRecord record;
    record.tick = 3;
    record.query_index = 1;
    record.value_id = 42;
    record.round_id = 2;
    record.cohort_digest = 0xfedcba9876543210ULL;
    record.outcome.contacted = 5;
    record.outcome.responded = 4;
    record.outcome.retry.retries_scheduled = 2;
    record.outcome.retry.hedges_issued = 1;
    record.outcome.assigned_clients = {2, 3, 5, 8, 13};
    record.outcome.succeeded_client_ids = {20, 30, 50, 80};
    record.outcome.failed_client_ids = {130};
    std::vector<uint8_t> payload;
    EncodeRoundClosedRecord(record, &payload);
    RoundClosedRecord decoded;
    ASSERT_TRUE(DecodeRoundClosedRecord(payload, &decoded));
    EXPECT_EQ(decoded.tick, record.tick);
    EXPECT_EQ(decoded.query_index, record.query_index);
    EXPECT_EQ(decoded.value_id, record.value_id);
    EXPECT_EQ(decoded.round_id, record.round_id);
    EXPECT_EQ(decoded.cohort_digest, record.cohort_digest);
    EXPECT_EQ(decoded.outcome.contacted, record.outcome.contacted);
    EXPECT_EQ(decoded.outcome.responded, record.outcome.responded);
    EXPECT_EQ(decoded.outcome.retry, record.outcome.retry);
    EXPECT_EQ(decoded.outcome.assigned_clients,
              record.outcome.assigned_clients);
    EXPECT_EQ(decoded.outcome.succeeded_client_ids,
              record.outcome.succeeded_client_ids);
    EXPECT_EQ(decoded.outcome.failed_client_ids,
              record.outcome.failed_client_ids);
    payload.push_back(0);
    EXPECT_FALSE(DecodeRoundClosedRecord(payload, &decoded));
    // A negative tick, query index or round id is corruption.
    for (const size_t field : {size_t{0}, size_t{8}, size_t{24}}) {
      std::vector<uint8_t> negative;
      EncodeRoundClosedRecord(record, &negative);
      negative[field + 7] = 0x80;
      EXPECT_FALSE(DecodeRoundClosedRecord(negative, &decoded)) << field;
    }
  }
  {
    QueryFinishedRecord record;
    record.tick = 2;
    record.query_index = 0;
    record.result.tick = 2;
    record.result.query_name = "metric";
    record.result.status = CampaignTickResult::Status::kRan;
    record.result.estimate = 36.5;
    record.result.reports = 640;
    record.final_bit_means = {0.5, 0.25, 0.125};
    std::vector<uint8_t> payload;
    EncodeQueryFinishedRecord(record, &payload);
    QueryFinishedRecord decoded;
    ASSERT_TRUE(DecodeQueryFinishedRecord(payload, &decoded));
    EXPECT_EQ(decoded.result, record.result);
    EXPECT_EQ(decoded.final_bit_means, record.final_bit_means);
  }
}

TEST(JournalPayloadTest, MeterChargeEpsilonValidation) {
  // A denied charge keeps the invalid epsilon it was denied for — replay
  // verifies it bit-for-bit against the re-executed attempt. A granted
  // charge never carries one (the meter denies invalid epsilon before
  // journaling), so decoding must reject it as corruption.
  const MeterChargeRecord denied{
      1, 2, std::numeric_limits<double>::quiet_NaN(), false};
  std::vector<uint8_t> payload;
  EncodeMeterChargeRecord(denied, &payload);
  MeterChargeRecord decoded;
  ASSERT_TRUE(DecodeMeterChargeRecord(payload, &decoded));
  EXPECT_FALSE(decoded.granted);
  EXPECT_TRUE(std::isnan(decoded.epsilon));

  for (const double bad :
       {-0.5, std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN()}) {
    const MeterChargeRecord granted{1, 2, bad, true};
    payload.clear();
    EncodeMeterChargeRecord(granted, &payload);
    EXPECT_FALSE(DecodeMeterChargeRecord(payload, &decoded));
  }
}

TEST(SnapshotTest, EncodeDecodeRoundTrip) {
  CoordinatorSnapshot snapshot;
  snapshot.base_seed = 0xDEADBEEF;
  snapshot.journal_next_seq = 17;
  snapshot.completed_ticks = 4;
  snapshot.meter_blob = {1, 2, 3, 4};
  FinishedQueryEntry entry;
  entry.query_index = 0;
  entry.result.tick = 3;
  entry.result.query_name = "m";
  entry.result.estimate = 1.5;
  entry.result.reports = 10;
  entry.tallies.totals = {6, 4};
  entry.tallies.ones = {3, 0};
  entry.faults.injected_dropouts = 2;
  entry.faults.backfill_reports = 1;
  snapshot.finished.push_back(entry);

  std::vector<uint8_t> encoded;
  EncodeCoordinatorSnapshot(snapshot, &encoded);
  CoordinatorSnapshot decoded;
  ASSERT_TRUE(DecodeCoordinatorSnapshot(encoded, &decoded));
  EXPECT_EQ(decoded.base_seed, snapshot.base_seed);
  EXPECT_EQ(decoded.journal_next_seq, snapshot.journal_next_seq);
  EXPECT_EQ(decoded.completed_ticks, snapshot.completed_ticks);
  EXPECT_EQ(decoded.meter_blob, snapshot.meter_blob);
  ASSERT_EQ(decoded.finished.size(), 1u);
  EXPECT_EQ(decoded.finished[0], entry);
}

TEST(SnapshotTest, InconsistentFinishedEntriesFailClosed) {
  // Each entry below is CRC-valid but cannot have come from a coordinator:
  // a finished query at or past the completed ticks (what a snapshot taken
  // inside a re-run restored prefix used to record), tallies that are not
  // counts, and a negative fault counter.
  FinishedQueryEntry good;
  good.result.tick = 1;
  good.result.query_name = "m";
  good.tallies.totals = {5, 5};
  good.tallies.ones = {2, 5};
  const auto decodes = [](const FinishedQueryEntry& entry) {
    CoordinatorSnapshot snapshot;
    snapshot.completed_ticks = 2;
    snapshot.finished.push_back(entry);
    std::vector<uint8_t> encoded;
    EncodeCoordinatorSnapshot(snapshot, &encoded);
    CoordinatorSnapshot decoded;
    return DecodeCoordinatorSnapshot(encoded, &decoded);
  };
  ASSERT_TRUE(decodes(good));

  FinishedQueryEntry bad = good;
  bad.result.tick = 2;
  EXPECT_FALSE(decodes(bad)) << "tick at completed_ticks";
  bad.result.tick = 5;
  EXPECT_FALSE(decodes(bad)) << "tick past completed_ticks";
  bad = good;
  bad.tallies.ones[0] = 6;
  EXPECT_FALSE(decodes(bad)) << "ones above totals";
  bad = good;
  bad.tallies.ones[1] = -1;
  EXPECT_FALSE(decodes(bad)) << "negative ones";
  bad = good;
  bad.tallies.totals[0] = -1;
  EXPECT_FALSE(decodes(bad)) << "negative totals";
  bad = good;
  bad.tallies.ones.pop_back();
  EXPECT_FALSE(decodes(bad)) << "unequal widths";
  bad = good;
  bad.faults.static_policy_fallbacks = -1;
  EXPECT_FALSE(decodes(bad)) << "negative fault counter";
}

TEST(SnapshotTest, AnySingleBitFlipIsRejected) {
  CoordinatorSnapshot snapshot;
  snapshot.base_seed = 1;
  snapshot.journal_next_seq = 2;
  snapshot.completed_ticks = 1;
  snapshot.meter_blob = {5, 6};
  std::vector<uint8_t> encoded;
  EncodeCoordinatorSnapshot(snapshot, &encoded);
  for (size_t pos = 0; pos < encoded.size(); ++pos) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> corrupt = encoded;
      corrupt[pos] ^= static_cast<uint8_t>(1 << bit);
      CoordinatorSnapshot out;
      EXPECT_FALSE(DecodeCoordinatorSnapshot(corrupt, &out))
          << "flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(SnapshotTest, TruncationAndTrailingGarbageRejected) {
  CoordinatorSnapshot snapshot;
  snapshot.meter_blob = {1};
  std::vector<uint8_t> encoded;
  EncodeCoordinatorSnapshot(snapshot, &encoded);
  CoordinatorSnapshot out;
  for (size_t cut = 0; cut < encoded.size(); ++cut) {
    std::vector<uint8_t> truncated(
        encoded.begin(), encoded.begin() + static_cast<ptrdiff_t>(cut));
    EXPECT_FALSE(DecodeCoordinatorSnapshot(truncated, &out)) << cut;
  }
  std::vector<uint8_t> extended = encoded;
  extended.push_back(0);
  EXPECT_FALSE(DecodeCoordinatorSnapshot(extended, &out));
}

// The file writer streams the ledger blob instead of building a file
// image; what lands on disk must still be exactly the encoder's bytes.
TEST(SnapshotTest, StreamedFileEqualsEncodedBytes) {
  MeterPolicy policy;
  policy.max_bits_per_value = 4;
  policy.max_bits_per_client = 16;
  PrivacyMeter meter(policy);
  for (int64_t client = 0; client < 3000; ++client) {
    for (int64_t value = 1; value <= 1 + client % 3; ++value) {
      ASSERT_TRUE(meter.TryChargeBit(client * 7 + 1, value, 0.5));
    }
  }
  BreakerPolicy breaker;
  breaker.consecutive_failures_to_open = 1;
  HealthTracker health(breaker);
  health.BeginRound();
  health.ObserveRound(1, {2, 4, 6}, {1, 3, 5});

  CoordinatorSnapshot snapshot;
  snapshot.base_seed = 91;
  snapshot.journal_next_seq = 1234;
  snapshot.completed_ticks = 3;
  meter.EncodeTo(&snapshot.meter_blob);
  ASSERT_GT(snapshot.meter_blob.size(), size_t{64} << 10);
  for (int64_t tick = 0; tick < 3; ++tick) {
    FinishedQueryEntry entry;
    entry.query_index = 0;
    entry.result.tick = tick;
    entry.result.query_name = "m";
    entry.result.reports = 100 + tick;
    entry.tallies.totals = {60, 40 + tick};
    entry.tallies.ones = {15, 20};
    snapshot.finished.push_back(entry);
  }
  health.EncodeTo(&snapshot.health_blob);
  ASSERT_FALSE(snapshot.health_blob.empty());

  const std::string dir = ::testing::TempDir() + "/snapshot_streamed";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/snapshot.bin";
  std::string error;
  ASSERT_TRUE(WriteSnapshotFile(path, snapshot, &error)) << error;

  std::vector<uint8_t> encoded;
  EncodeCoordinatorSnapshot(snapshot, &encoded);
  std::vector<uint8_t> on_disk(std::filesystem::file_size(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  ASSERT_EQ(std::fread(on_disk.data(), 1, on_disk.size(), file),
            on_disk.size());
  std::fclose(file);
  EXPECT_EQ(on_disk, encoded);

  CoordinatorSnapshot loaded;
  bool found = false;
  ASSERT_TRUE(LoadSnapshotFile(path, &loaded, &found, &error)) << error;
  EXPECT_TRUE(found);
  EXPECT_EQ(loaded.meter_blob, snapshot.meter_blob);
  EXPECT_EQ(loaded.health_blob, snapshot.health_blob);
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, FileCycleIsAtomicAndFailsClosedOnCorruption) {
  const std::string dir = ::testing::TempDir() + "/snapshot_cycle";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/snapshot.bin";

  CoordinatorSnapshot out;
  bool found = true;
  std::string error;
  ASSERT_TRUE(LoadSnapshotFile(path, &out, &found, &error)) << error;
  EXPECT_FALSE(found);  // missing file: fresh state, not an error

  CoordinatorSnapshot snapshot;
  snapshot.base_seed = 77;
  snapshot.completed_ticks = 2;
  ASSERT_TRUE(WriteSnapshotFile(path, snapshot, &error)) << error;
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ASSERT_TRUE(LoadSnapshotFile(path, &out, &found, &error)) << error;
  EXPECT_TRUE(found);
  EXPECT_EQ(out.base_seed, 77u);

  // Corrupt the file on disk: loading must fail closed, not start fresh.
  std::FILE* file = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(file, nullptr);
  std::fseek(file, 8, SEEK_SET);
  std::fputc(0xFF, file);
  std::fclose(file);
  EXPECT_FALSE(LoadSnapshotFile(path, &out, &found, &error));
  EXPECT_FALSE(error.empty());
  std::filesystem::remove_all(dir);
}

TEST(SnapshotTest, MissingFileReadsAsNotFound) {
  const std::string dir = ::testing::TempDir() + "/snapshot_missing";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::string error;

  std::vector<uint8_t> bytes = {9};
  bool found = true;
  EXPECT_TRUE(ReadWholeFile(SnapshotPath(dir), &bytes, &found, &error));
  EXPECT_FALSE(found);
  EXPECT_TRUE(bytes.empty());
  EXPECT_TRUE(error.empty()) << error;

  CoordinatorSnapshot snapshot;
  found = true;
  EXPECT_TRUE(LoadSnapshotFile(SnapshotPath(dir), &snapshot, &found, &error));
  EXPECT_FALSE(found);
  EXPECT_TRUE(error.empty()) << error;

  JournalReadResult journal;
  EXPECT_TRUE(ReadJournalFromFirstFrame(JournalPath(dir), &journal, &error));
  EXPECT_TRUE(journal.records.empty());
  EXPECT_EQ(journal.next_seq, 0u);
  EXPECT_TRUE(error.empty()) << error;

  // Anything else that cannot be read is an error naming the path.
  EXPECT_FALSE(ReadWholeFile(dir, &bytes, &found, &error));
  EXPECT_NE(error.find(dir), std::string::npos) << error;
  std::filesystem::remove_all(dir);
}

int64_t SnapshotWrites() {
  int64_t writes = 0;
  obs::Registry::Default().Visit(
      [&](const obs::InstrumentInfo& info, const obs::Counter* counter,
          const obs::Gauge*, const obs::Histogram*) {
        if (counter != nullptr &&
            info.name == "bitpush_snapshot_writes_total") {
          writes = counter->value();
        }
      });
  return writes;
}

TEST(SnapshotTest, FailedReplaceLeavesTargetAlone) {
  // The target is a non-empty directory, so the rename over it fails
  // after the sibling was written.
  const std::string dir = ::testing::TempDir() + "/snapshot_replace_fails";
  std::filesystem::remove_all(dir);
  const std::string target = dir + "/target";
  std::filesystem::create_directories(target);
  const std::string inside = target + "/kept";
  std::ofstream(inside) << "kept";
  const auto expect_untouched = [&](const std::string& what) {
    EXPECT_TRUE(std::filesystem::is_directory(target)) << what;
    std::ifstream in(inside);
    EXPECT_EQ(std::string(std::istreambuf_iterator<char>(in),
                          std::istreambuf_iterator<char>()),
              "kept")
        << what;
    EXPECT_EQ(std::distance(std::filesystem::directory_iterator(target),
                            std::filesystem::directory_iterator()),
              1)
        << what;
    EXPECT_FALSE(std::filesystem::exists(target + ".tmp")) << what;
  };

  std::string error;
  EXPECT_FALSE(ReplaceFile(target, std::vector<uint8_t>{1, 2, 3},
                           /*sync=*/true, &error));
  EXPECT_NE(error.find(target), std::string::npos) << error;
  expect_untouched("ReplaceFile");

  obs::Registry::Default().Reset();
  obs::SetEnabled(true);
  CoordinatorSnapshot snapshot;
  snapshot.base_seed = 5;
  error.clear();
  EXPECT_FALSE(WriteSnapshotFile(target, snapshot, &error));
  EXPECT_NE(error.find(target), std::string::npos) << error;
  EXPECT_EQ(SnapshotWrites(), 0);
  // The same snapshot beside it is written, and counted.
  EXPECT_TRUE(WriteSnapshotFile(dir + "/snapshot.bin", snapshot, &error))
      << error;
  EXPECT_EQ(SnapshotWrites(), 1);
  obs::SetEnabled(false);
  expect_untouched("WriteSnapshotFile");
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace bitpush
