// Write-ahead journal and snapshot format tests: frame round-trips, group
// commit, the torn-tail-vs-hard-corruption distinction, sequence
// discipline, stale pre-snapshot prefixes, and the atomic snapshot file
// cycle.

// bitpush-lint: allow(privacy-metering): format round-trip tests build synthetic reports; no client value is behind them

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
      EncodeQueryStartedRecord(QueryStartedRecord{i, i % 3, 100 + i},
                               &payload);
      AppendJournalFrame(JournalRecordType::kQueryStarted,
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
  CohortAssignedRecord cohort;
  cohort.round_id = 1;
  for (int64_t id = 0; id < 20000; ++id) cohort.client_ids.push_back(id * 3);
  std::vector<uint8_t> large;
  EncodeCohortAssignedRecord(cohort, &large);
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
    ASSERT_TRUE(writer.Append(JournalRecordType::kCohortAssigned, large));
    ASSERT_TRUE(writer.Append(JournalRecordType::kCampaignTick, small));
    ASSERT_TRUE(writer.Commit());
  }
  AppendJournalFrame(JournalRecordType::kCampaignTick, 0, small, &expected);
  AppendJournalFrame(JournalRecordType::kCohortAssigned, 1, large, &expected);
  AppendJournalFrame(JournalRecordType::kCampaignTick, 2, small, &expected);
  EXPECT_EQ(ReadBytes(), expected);

  JournalReadResult result;
  std::string error;
  ASSERT_TRUE(ReadJournal(path_, 0, &result, &error)) << error;
  ASSERT_EQ(result.records.size(), 3u);
  CohortAssignedRecord decoded;
  ASSERT_TRUE(DecodeCohortAssignedRecord(result.records[1].payload, &decoded));
  EXPECT_EQ(decoded, cohort);
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

  // A journal that starts *past* the snapshot sequence lost records: error.
  WriteBytes(SampleJournal(3, 2));
  EXPECT_FALSE(ReadJournal(path_, 1, &result, &error));
}

TEST(JournalPayloadTest, RecordCodecsRoundTrip) {
  {
    const QueryStartedRecord record{3, 1, 42};
    std::vector<uint8_t> payload;
    EncodeQueryStartedRecord(record, &payload);
    QueryStartedRecord decoded;
    ASSERT_TRUE(DecodeQueryStartedRecord(payload, &decoded));
    EXPECT_EQ(decoded, record);
    payload.push_back(0);  // trailing bytes must be rejected
    EXPECT_FALSE(DecodeQueryStartedRecord(payload, &decoded));
  }
  {
    const CohortAssignedRecord record{7, {2, 3, 5, 8, 13}};
    std::vector<uint8_t> payload;
    EncodeCohortAssignedRecord(record, &payload);
    CohortAssignedRecord decoded;
    ASSERT_TRUE(DecodeCohortAssignedRecord(payload, &decoded));
    EXPECT_EQ(decoded, record);
  }
  {
    const MeterChargeRecord record{11, 42, 0.75, true};
    std::vector<uint8_t> payload;
    EncodeMeterChargeRecord(record, &payload);
    MeterChargeRecord decoded;
    ASSERT_TRUE(DecodeMeterChargeRecord(payload, &decoded));
    EXPECT_EQ(decoded, record);
  }
  {
    ReportAcceptedRecord record;
    record.round_id = 9;
    record.report = BitReport{123, 4, 1};
    std::vector<uint8_t> payload;
    EncodeReportAcceptedRecord(record, &payload);
    ReportAcceptedRecord decoded;
    ASSERT_TRUE(DecodeReportAcceptedRecord(payload, &decoded));
    EXPECT_EQ(decoded, record);
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
  entry.tick = 3;
  entry.query_index = 0;
  entry.result.tick = 3;
  entry.result.query_name = "m";
  entry.result.estimate = 1.5;
  entry.result.reports = 10;
  entry.final_bit_means = {0.5};
  snapshot.finished.push_back(entry);
  snapshot.bit_means.push_back(BitMeansEntry{7, {0.25, 0.75}});

  std::vector<uint8_t> encoded;
  EncodeCoordinatorSnapshot(snapshot, &encoded);
  CoordinatorSnapshot decoded;
  ASSERT_TRUE(DecodeCoordinatorSnapshot(encoded, &decoded));
  EXPECT_EQ(decoded.base_seed, snapshot.base_seed);
  EXPECT_EQ(decoded.journal_next_seq, snapshot.journal_next_seq);
  EXPECT_EQ(decoded.completed_ticks, snapshot.completed_ticks);
  EXPECT_EQ(decoded.meter_blob, snapshot.meter_blob);
  ASSERT_EQ(decoded.finished.size(), 1u);
  EXPECT_EQ(decoded.finished[0].result, entry.result);
  ASSERT_EQ(decoded.bit_means.size(), 1u);
  EXPECT_EQ(decoded.bit_means[0].means, snapshot.bit_means[0].means);
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

}  // namespace
}  // namespace bitpush
