// Seeded fuzzing of the persistence decode paths, extending the
// wire_fuzz_test.cc pattern to journal files and snapshots. The contract
// under test is fail-closed recovery: for ANY mutated file the reader
// either returns a clean error, or returns records that are a bit-exact
// prefix of what was written (torn tail) — it never invents, alters, or
// silently drops a record in the middle, because a dropped record could be
// a privacy-meter charge.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "persist/journal.h"
#include "persist/snapshot.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

// Builds a plausible journal exercising every JournalRecordType: a round's
// meter charges, the closed round, the query result, and the campaign
// tick. The wire-exhaustiveness lint check requires each record type to
// pass through this fuzzer.
std::vector<JournalRecord> SampleRecords(Rng& rng) {
  std::vector<JournalRecord> records;
  uint64_t seq = 0;
  auto add = [&](JournalRecordType type, const std::vector<uint8_t>& payload) {
    JournalRecord record;
    record.seq = seq++;
    record.type = type;
    record.payload = payload;
    records.push_back(std::move(record));
  };
  std::vector<uint8_t> payload;
  const size_t charges = 1 + rng.NextBelow(6);
  for (size_t i = 0; i < charges; ++i) {
    payload.clear();
    MeterChargeRecord charge;
    charge.client_id = static_cast<int64_t>(rng.NextBelow(1000));
    charge.value_id = 7;
    charge.epsilon = rng.NextDouble();
    charge.granted = rng.NextBit() == 1;
    EncodeMeterChargeRecord(charge, &payload);
    add(JournalRecordType::kMeterCharge, payload);
  }

  payload.clear();
  RoundClosedRecord closed;
  closed.tick = 0;
  closed.query_index = 0;
  closed.value_id = 7;
  closed.round_id = 1;
  closed.cohort_digest = rng.NextUint64();
  const size_t cohort_size = 1 + rng.NextBelow(5);
  for (size_t i = 0; i < cohort_size; ++i) {
    closed.outcome.assigned_clients.push_back(
        static_cast<int64_t>(rng.NextBelow(1000)));
  }
  closed.outcome.contacted = static_cast<int64_t>(cohort_size);
  closed.outcome.responded = static_cast<int64_t>(charges);
  closed.outcome.dropout_rate = rng.NextDouble();
  closed.outcome.retry.retries_scheduled =
      static_cast<int64_t>(rng.NextBelow(4));
  closed.outcome.retry.hedges_issued = static_cast<int64_t>(rng.NextBelow(4));
  EncodeRoundClosedRecord(closed, &payload);
  add(JournalRecordType::kRoundClosed, payload);

  payload.clear();
  QueryFinishedRecord finished;
  finished.tick = 0;
  finished.query_index = 0;
  finished.result.tick = 0;
  finished.result.query_name = "metric";
  finished.result.status = CampaignTickResult::Status::kRan;
  finished.result.estimate = rng.NextDouble();
  finished.result.reports = static_cast<int64_t>(charges);
  finished.final_bit_means = {rng.NextDouble(), rng.NextDouble()};
  EncodeQueryFinishedRecord(finished, &payload);
  add(JournalRecordType::kQueryFinished, payload);

  payload.clear();
  EncodeCampaignTickRecord(CampaignTickRecord{0}, &payload);
  add(JournalRecordType::kCampaignTick, payload);
  return records;
}

std::vector<uint8_t> EncodeAll(const std::vector<JournalRecord>& records) {
  std::vector<uint8_t> bytes;
  for (const JournalRecord& record : records) {
    AppendJournalFrame(record.type, record.seq, record.payload, &bytes);
  }
  return bytes;
}

// Same mutation repertoire as the wire fuzzer: bit flips, truncations,
// duplicated spans (a repeated record must be caught by the sequence
// check), and stacked combinations.
void Mutate(Rng& rng, std::vector<uint8_t>* buffer) {
  const uint64_t kind = rng.NextBelow(4);
  if (kind == 0 || kind == 3) {
    const uint64_t flips = 1 + rng.NextBelow(8);
    for (uint64_t k = 0; k < flips && !buffer->empty(); ++k) {
      const size_t pos = static_cast<size_t>(rng.NextBelow(buffer->size()));
      (*buffer)[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
  }
  if (kind == 1 || kind == 3) {
    buffer->resize(static_cast<size_t>(rng.NextBelow(buffer->size() + 1)));
  }
  if (kind == 2 && !buffer->empty()) {  // duplicate a span in place
    const size_t from = static_cast<size_t>(rng.NextBelow(buffer->size()));
    const size_t length = static_cast<size_t>(
        1 + rng.NextBelow(buffer->size() - from));
    const std::vector<uint8_t> span(
        buffer->begin() + static_cast<ptrdiff_t>(from),
        buffer->begin() + static_cast<ptrdiff_t>(from + length));
    const size_t at = static_cast<size_t>(rng.NextBelow(buffer->size() + 1));
    buffer->insert(buffer->begin() + static_cast<ptrdiff_t>(at), span.begin(),
                   span.end());
  }
}

class PersistFuzzTest : public ::testing::Test {
 protected:
  PersistFuzzTest() {
    // Unique per test: ctest runs the cases of this fixture as concurrent
    // processes, which must not share a journal file.
    dir_ = ::testing::TempDir() + "/persist_fuzz_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/journal.wal";
  }
  ~PersistFuzzTest() override { std::filesystem::remove_all(dir_); }

  void WriteBytes(const std::vector<uint8_t>& bytes) {
    std::FILE* file = std::fopen(path_.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!bytes.empty()) {
      // fwrite's first argument is declared nonnull; an empty vector's
      // data() may be null.
      ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), file),
                bytes.size());
    }
    std::fclose(file);
  }

  std::string dir_;
  std::string path_;
};

TEST_F(PersistFuzzTest, JournalReaderFailsClosedOnEveryMutation) {
  for (uint64_t iteration = 0; iteration < 3000; ++iteration) {
    Rng rng(0xA11CE000 + iteration);
    const std::vector<JournalRecord> original = SampleRecords(rng);
    std::vector<uint8_t> bytes = EncodeAll(original);
    Mutate(rng, &bytes);
    WriteBytes(bytes);

    JournalReadResult result;
    std::string error;
    if (!ReadJournal(path_, 0, &result, &error)) {
      ASSERT_FALSE(error.empty()) << iteration;
      continue;
    }
    // Accepted: everything kept must be a bit-exact prefix of the original
    // stream. In particular no meter charge in the prefix was altered and
    // none before the accepted length was dropped.
    ASSERT_LE(result.records.size(), original.size()) << iteration;
    for (size_t i = 0; i < result.records.size(); ++i) {
      ASSERT_EQ(result.records[i].seq, original[i].seq) << iteration;
      ASSERT_EQ(result.records[i].type, original[i].type) << iteration;
      ASSERT_EQ(result.records[i].payload, original[i].payload) << iteration;
    }
    if (result.records.size() < original.size()) {
      // Shortened output must be flagged, never presented as a clean file.
      ASSERT_TRUE(result.torn_tail || bytes.size() < EncodeAll(original).size())
          << iteration;
    }
  }
}

TEST_F(PersistFuzzTest, JournalReaderSurvivesPureGarbage) {
  for (uint64_t iteration = 0; iteration < 2000; ++iteration) {
    Rng rng(0xBAD0000 + iteration);
    std::vector<uint8_t> bytes(rng.NextBelow(256));
    for (uint8_t& byte : bytes) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    WriteBytes(bytes);
    JournalReadResult result;
    std::string error;
    if (ReadJournal(path_, 0, &result, &error)) {
      // Garbage essentially never forms a valid CRC frame; if it does, the
      // records must still satisfy the framing invariants.
      for (const JournalRecord& record : result.records) {
        ASSERT_GE(static_cast<uint8_t>(record.type), 1u) << iteration;
        ASSERT_LE(static_cast<uint8_t>(record.type),
                  static_cast<uint8_t>(JournalRecordType::kCampaignTick))
            << iteration;
      }
    }
  }
}

TEST_F(PersistFuzzTest, JournalReaderRejectsEveryOtherFormatVersion) {
  // Every frame's leading byte is kJournalFormatVersion. A journal framed
  // with any other version byte — CRCs recomputed, so only the version is
  // wrong — fails closed, including version 1, the wire format byte an
  // older build framed the journal with.
  Rng rng(0x7E5510);
  const std::vector<JournalRecord> original = SampleRecords(rng);
  const std::vector<uint8_t> pristine = EncodeAll(original);
  ASSERT_EQ(pristine[0], kJournalFormatVersion);
  for (int version = 0; version < 256; ++version) {
    if (version == kJournalFormatVersion) continue;
    std::vector<uint8_t> journal;
    for (const JournalRecord& record : original) {
      std::vector<uint8_t> frame;
      AppendJournalFrame(record.type, record.seq, record.payload, &frame);
      frame[0] = static_cast<uint8_t>(version);
      frame.erase(frame.end() - 4, frame.end());  // the CRC
      bytes::PutUint32(bytes::Crc32(frame), &frame);
      journal.insert(journal.end(), frame.begin(), frame.end());
    }
    WriteBytes(journal);
    JournalReadResult result;
    std::string error;
    EXPECT_FALSE(ReadJournal(path_, 0, &result, &error)) << version;
    EXPECT_NE(error.find("format version"), std::string::npos) << error;
  }
}

// A snapshot body with a valid CRC whose finished-query and bit-means
// counts are the given values and whose sections are otherwise empty.
std::vector<uint8_t> SnapshotWithCounts(uint32_t finished_count,
                                        uint32_t means_count) {
  std::vector<uint8_t> bytes = {'B', 'P', 'S', 'N', kSnapshotFormatVersion};
  bytes::PutUint64(1, &bytes);  // base seed
  bytes::PutUint64(0, &bytes);  // journal next seq
  bytes::PutInt64(0, &bytes);   // completed ticks
  bytes::PutUint32(0, &bytes);  // meter blob length
  bytes::PutUint32(finished_count, &bytes);
  if (finished_count == 0) {
    bytes::PutUint32(means_count, &bytes);
    bytes::PutUint32(0, &bytes);  // health blob length
  }
  bytes::PutUint32(bytes::Crc32(bytes), &bytes);
  return bytes;
}

// A meter blob with a valid policy and no charges, then `tail`.
std::vector<uint8_t> MeterBlobWithTail(const std::vector<uint8_t>& tail) {
  std::vector<uint8_t> blob;
  bytes::PutInt64(1, &blob);     // max bits per value
  bytes::PutInt64(1, &blob);     // max bits per client
  bytes::PutDouble(1.0, &blob);  // max epsilon per client
  bytes::PutInt64(0, &blob);     // total bits
  bytes::PutInt64(0, &blob);     // denied charges
  blob.insert(blob.end(), tail.begin(), tail.end());
  return blob;
}

TEST_F(PersistFuzzTest, SnapshotWithOversizedFinishedCountFailsClosed) {
  // 41 bytes that claim 2^32 - 1 finished queries: the count must be
  // checked against the bytes left, not used to size an allocation.
  const std::vector<uint8_t> bytes = SnapshotWithCounts(0xFFFFFFFF, 0);
  ASSERT_EQ(bytes.size(), 41u);
  WriteBytes(bytes);
  CoordinatorSnapshot snapshot;
  bool found = false;
  std::string error;
  EXPECT_FALSE(LoadSnapshotFile(path_, &snapshot, &found, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(PersistFuzzTest, SnapshotWithOversizedBitMeansCountFailsClosed) {
  WriteBytes(SnapshotWithCounts(0, 0xFFFFFFFF));
  CoordinatorSnapshot snapshot;
  bool found = false;
  std::string error;
  EXPECT_FALSE(LoadSnapshotFile(path_, &snapshot, &found, &error));
  EXPECT_FALSE(error.empty());
  // The same file with a truthful count loads.
  WriteBytes(SnapshotWithCounts(0, 0));
  error.clear();
  EXPECT_TRUE(LoadSnapshotFile(path_, &snapshot, &found, &error)) << error;
  EXPECT_TRUE(found);
}

TEST_F(PersistFuzzTest, MeterBlobWithOversizedClientCountFailsClosed) {
  // 44 bytes that claim 2^32 - 1 clients.
  std::vector<uint8_t> count;
  bytes::PutUint32(0xFFFFFFFF, &count);
  const std::vector<uint8_t> blob = MeterBlobWithTail(count);
  ASSERT_EQ(blob.size(), 44u);
  PrivacyMeter meter{MeterPolicy{}};
  size_t offset = 0;
  EXPECT_FALSE(PrivacyMeter::DecodeFrom(blob, &offset, &meter));
  EXPECT_EQ(offset, 0u);
}

TEST_F(PersistFuzzTest, MeterBlobWithOversizedValueCountFailsClosed) {
  // One client whose entry claims 2^32 - 1 values.
  std::vector<uint8_t> tail;
  bytes::PutUint32(1, &tail);     // clients
  bytes::PutInt64(42, &tail);     // client id
  bytes::PutInt64(0, &tail);      // bits
  bytes::PutDouble(0.0, &tail);   // epsilon
  bytes::PutUint32(0xFFFFFFFF, &tail);
  PrivacyMeter meter{MeterPolicy{}};
  size_t offset = 0;
  EXPECT_FALSE(
      PrivacyMeter::DecodeFrom(MeterBlobWithTail(tail), &offset, &meter));
  EXPECT_EQ(offset, 0u);
}

TEST(SnapshotFuzzTest, DecoderFailsClosedOnEveryMutation) {
  for (uint64_t iteration = 0; iteration < 3000; ++iteration) {
    Rng rng(0x5A45000 + iteration);
    CoordinatorSnapshot snapshot;
    snapshot.base_seed = rng.NextUint64();
    snapshot.journal_next_seq = rng.NextBelow(100);
    snapshot.completed_ticks = static_cast<int64_t>(rng.NextBelow(10));
    snapshot.meter_blob.resize(rng.NextBelow(32));
    for (uint8_t& byte : snapshot.meter_blob) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    snapshot.bit_means.push_back(
        BitMeansEntry{1, {rng.NextDouble(), rng.NextDouble()}});
    std::vector<uint8_t> bytes;
    EncodeCoordinatorSnapshot(snapshot, &bytes);
    const std::vector<uint8_t> pristine = bytes;
    Mutate(rng, &bytes);
    CoordinatorSnapshot out;
    if (DecodeCoordinatorSnapshot(bytes, &out)) {
      // The whole-file CRC means a successful decode implies the mutation
      // was an identity (or a vanishingly unlikely collision): the decoded
      // snapshot must equal the original field for field.
      ASSERT_EQ(bytes, pristine) << iteration;
      ASSERT_EQ(out.base_seed, snapshot.base_seed) << iteration;
      ASSERT_EQ(out.meter_blob, snapshot.meter_blob) << iteration;
    }
  }
}

}  // namespace
}  // namespace bitpush
