// Seeded fuzzing of the persistence decode paths, extending the
// wire_fuzz_test.cc pattern to journal files and snapshots. The contract
// under test is fail-closed recovery: for ANY mutated file the reader
// either returns a clean error, or returns records that are a bit-exact
// prefix of what was written (torn tail) — it never invents, alters, or
// silently drops a record in the middle, because a dropped record could be
// a privacy-meter charge.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/faults.h"
#include "federated/resilience.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "persist/recovery.h"
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

// Damages a record payload or a snapshot body in one of the ways its
// decoder must survive: flipped bits, a four-byte count or length that
// lies, a truncation, or bytes appended.
void MutateContent(Rng& rng, std::vector<uint8_t>* content) {
  const auto random_byte = [&rng] {
    return static_cast<uint8_t>(rng.NextBelow(256));
  };
  if (content->empty()) {
    content->push_back(random_byte());
    return;
  }
  switch (rng.NextBelow(4)) {
    case 0: {
      const uint64_t flips = 1 + rng.NextBelow(4);
      for (uint64_t k = 0; k < flips; ++k) {
        (*content)[static_cast<size_t>(rng.NextBelow(content->size()))] ^=
            static_cast<uint8_t>(1u << rng.NextBelow(8));
      }
      break;
    }
    case 1: {
      if (content->size() < 4) {
        content->clear();
        break;
      }
      uint8_t* const at =
          content->data() + rng.NextBelow(content->size() - 3);
      uint32_t was = 0;
      for (int i = 0; i < 4; ++i) was |= static_cast<uint32_t>(at[i]) << (8 * i);
      const uint32_t lies[] = {0u,          1u,      2u,
                               0x7FFFFFFFu, ~0u,     was + 1,
                               was - 1,     was * 2, static_cast<uint32_t>(
                                                         content->size())};
      bytes::StoreUint32(lies[rng.NextBelow(std::size(lies))], at);
      break;
    }
    case 2:
      content->resize(static_cast<size_t>(rng.NextBelow(content->size())));
      break;
    default: {
      const uint64_t extra = 1 + rng.NextBelow(16);
      for (uint64_t k = 0; k < extra; ++k) content->push_back(random_byte());
      break;
    }
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

// A snapshot with a valid CRC and otherwise empty sections whose
// finished-query count is `finished_count`.
std::vector<uint8_t> SnapshotWithFinishedCount(uint32_t finished_count) {
  std::vector<uint8_t> bytes = {'B', 'P', 'S', 'N', kSnapshotFormatVersion};
  bytes::PutUint64(1, &bytes);  // base seed
  bytes::PutUint64(0, &bytes);  // journal next seq
  bytes::PutInt64(0, &bytes);   // completed ticks
  bytes::PutUint32(0, &bytes);  // meter blob length
  bytes::PutUint32(finished_count, &bytes);
  if (finished_count == 0) bytes::PutUint32(0, &bytes);  // health blob
  bytes::PutUint32(bytes::Crc32(bytes), &bytes);
  return bytes;
}

// A snapshot with a valid CRC holding one finished query at tick 0 whose
// tally totals vector claims `totals_count` entries. A zero count gives
// the entry zero-width tallies and no fault, and the file is complete.
std::vector<uint8_t> SnapshotWithTallyCount(uint32_t totals_count) {
  std::vector<uint8_t> bytes = {'B', 'P', 'S', 'N', kSnapshotFormatVersion};
  bytes::PutUint64(1, &bytes);  // base seed
  bytes::PutUint64(0, &bytes);  // journal next seq
  bytes::PutInt64(1, &bytes);   // completed ticks
  bytes::PutUint32(0, &bytes);  // meter blob length
  bytes::PutUint32(1, &bytes);  // finished queries
  bytes::PutInt64(0, &bytes);   // query index
  CampaignTickResult result;
  result.query_name = "m";
  EncodeCampaignTickResult(result, &bytes);
  bytes::PutUint32(totals_count, &bytes);
  if (totals_count == 0) {
    bytes::PutUint32(0, &bytes);  // ones
    EncodeFaultStats(FaultStats{}, &bytes);
    bytes::PutUint32(0, &bytes);  // health blob
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
  const std::vector<uint8_t> bytes = SnapshotWithFinishedCount(0xFFFFFFFF);
  ASSERT_EQ(bytes.size(), 41u);
  WriteBytes(bytes);
  CoordinatorSnapshot snapshot;
  bool found = false;
  std::string error;
  EXPECT_FALSE(LoadSnapshotFile(path_, &snapshot, &found, &error));
  EXPECT_FALSE(error.empty());
}

TEST_F(PersistFuzzTest, SnapshotWithOversizedTallyCountFailsClosed) {
  // A finished query whose tallies claim 2^32 - 1 bits: the count must be
  // checked against the bytes left, not used to size an allocation.
  WriteBytes(SnapshotWithTallyCount(0xFFFFFFFF));
  CoordinatorSnapshot snapshot;
  bool found = false;
  std::string error;
  EXPECT_FALSE(LoadSnapshotFile(path_, &snapshot, &found, &error));
  EXPECT_FALSE(error.empty());
  // The same file with a truthful count loads.
  WriteBytes(SnapshotWithTallyCount(0));
  error.clear();
  EXPECT_TRUE(LoadSnapshotFile(path_, &snapshot, &found, &error)) << error;
  EXPECT_TRUE(found);
  ASSERT_EQ(snapshot.finished.size(), 1u);
  EXPECT_EQ(snapshot.finished[0].tallies.bits(), 0);
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

// The state files of a real campaign, damaged below their CRCs: a journal
// frame's payload or the snapshot body is mutated and every frame and file
// CRC recomputed, so that only the content lies. Open decodes every record
// itself, so whatever the damage it must return false with an error or
// return true. It must never abort.
TEST_F(PersistFuzzTest, OpenFailsClosedOnEveryMutation) {
  Rng data_rng(7);
  const std::vector<Client> population =
      MakePopulation(CensusAges(40, data_rng).values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&population,
                                                               &population};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(6),
                                               FixedPointCodec::Integer(6)};
  FaultRates rates;
  rates.mid_round_dropout = 0.1;
  rates.corrupt_message = 0.05;
  const FaultPlan plan(97, rates);
  std::vector<CampaignQuery> queries;
  for (int i = 0; i < 2; ++i) {
    CampaignQuery query;
    query.name = std::string(1, static_cast<char>('a' + i));
    query.value_id = i;
    query.query.adaptive.bits = 6;
    query.query.fault_plan = &plan;
    queries.push_back(query);
  }
  // Tight caps, so that the journal holds denied charges too, and a
  // breaker, so that the snapshot holds its state.
  MeterPolicy policy;
  policy.max_bits_per_value = 1;
  policy.max_bits_per_client = 2;
  policy.max_epsilon_per_client = 100.0;
  ResilienceConfig resilience;
  resilience.breaker.consecutive_failures_to_open = 2;
  const auto options = [](const std::string& dir, int64_t snapshot_every) {
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = 2024;
    options.snapshot_every_ticks = snapshot_every;
    options.fsync = false;
    return options;
  };
  const auto file_bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
  };

  // Two pristine state directories, at snapshot_every 0 and 1: two ticks,
  // then a third journaled on top of whatever the first run snapshotted.
  struct State {
    std::vector<uint8_t> snapshot;
    std::vector<JournalRecord> journal;
  };
  std::vector<State> states;
  for (const int64_t snapshot_every : {0, 1}) {
    const std::string dir = dir_ + "/pristine" + std::to_string(snapshot_every);
    std::string error;
    {
      DurableCampaignRunner runner(queries, policy,
                                   options(dir, snapshot_every), resilience);
      ASSERT_TRUE(runner.Open(populations, &error)) << error;
      for (int64_t tick = 0; tick < 2; ++tick) {
        runner.RunTick(tick, codecs);
      }
    }
    DurableCampaignRunner runner(queries, policy, options(dir, 0), resilience);
    ASSERT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < 3; ++tick) {
      runner.RunTick(tick, codecs);
    }
    State state;
    if (std::filesystem::exists(SnapshotPath(dir))) {
      state.snapshot = file_bytes(SnapshotPath(dir));
    }
    JournalReadResult journal;
    ASSERT_TRUE(ReadJournalFromFirstFrame(JournalPath(dir), &journal, &error))
        << error;
    state.journal = std::move(journal.records);
    ASSERT_FALSE(state.journal.empty());
    states.push_back(std::move(state));
  }
  ASSERT_TRUE(states[0].snapshot.empty());
  ASSERT_FALSE(states[1].snapshot.empty());

  // With obs on, the apply pass also feeds the metrics and the flight
  // recorder from what it decoded.
  obs::SetEnabled(true);
  const std::string dir = dir_ + "/mutated";
  int64_t opened = 0;
  int64_t failed = 0;
  for (uint64_t iteration = 0; iteration < 1500; ++iteration) {
    Rng rng(0x0BE40000 + iteration);
    const State& state = states[rng.NextBelow(states.size())];
    std::vector<JournalRecord> journal = state.journal;
    // Half the time a crash's prefix: held rounds, and charges of a round
    // that never closed.
    if (rng.NextBit() == 1) {
      journal.resize(static_cast<size_t>(1 + rng.NextBelow(journal.size())));
    }
    // Beside a snapshot, a quarter of the time a stale prefix: the frames a
    // crash between the snapshot's rename and the journal truncation left.
    if (!state.snapshot.empty() && rng.NextBelow(4) == 0) {
      // Copies of up to four leading frames, numbered just below it.
      const uint64_t first_seq = journal.front().seq;
      const size_t stale = static_cast<size_t>(1 + rng.NextBelow(
          std::min<uint64_t>({first_seq, 4, journal.size()})));
      std::vector<JournalRecord> prefix(journal.begin(),
                                        journal.begin() + stale);
      for (size_t i = 0; i < stale; ++i) prefix[i].seq = first_seq - stale + i;
      journal.insert(journal.begin(), prefix.begin(), prefix.end());
    }
    std::vector<uint8_t> snapshot = state.snapshot;
    if (!snapshot.empty() && rng.NextBelow(3) == 0) {
      // The body lies between the magic and version and the file CRC.
      std::vector<uint8_t> body(snapshot.begin() + 5, snapshot.end() - 4);
      MutateContent(rng, &body);
      snapshot.resize(5);
      snapshot.insert(snapshot.end(), body.begin(), body.end());
      bytes::PutUint32(bytes::Crc32(snapshot), &snapshot);
    } else {
      MutateContent(
          rng,
          &journal[static_cast<size_t>(rng.NextBelow(journal.size()))].payload);
    }
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    if (!snapshot.empty()) {
      std::ofstream out(SnapshotPath(dir), std::ios::binary);
      out.write(reinterpret_cast<const char*>(snapshot.data()),
                static_cast<std::streamsize>(snapshot.size()));
    }
    const std::vector<uint8_t> framed = EncodeAll(journal);
    std::ofstream(JournalPath(dir), std::ios::binary)
        .write(reinterpret_cast<const char*>(framed.data()),
               static_cast<std::streamsize>(framed.size()));

    DurableCampaignRunner runner(queries, policy, options(dir, 0), resilience);
    std::string error;
    if (runner.Open(populations, &error)) {
      ++opened;
    } else {
      ASSERT_FALSE(error.empty()) << iteration;
      // A validation error. The disk is healthy, so no I/O fails, and
      // every I/O error names its path.
      ASSERT_EQ(error.find(dir), std::string::npos)
          << iteration << ": " << error;
      ++failed;
    }
  }
  obs::SetEnabled(false);
  // Both outcomes occur: some damage lands where no check can see it (an
  // estimate, a fault counter), and most is caught.
  EXPECT_GT(opened, 0);
  EXPECT_GT(failed, 0);
}

TEST(SnapshotFuzzTest, DecoderFailsClosedOnEveryMutation) {
  for (uint64_t iteration = 0; iteration < 3000; ++iteration) {
    Rng rng(0x5A45000 + iteration);
    CoordinatorSnapshot snapshot;
    snapshot.base_seed = rng.NextUint64();
    snapshot.journal_next_seq = rng.NextBelow(100);
    snapshot.meter_blob.resize(rng.NextBelow(32));
    for (uint8_t& byte : snapshot.meter_blob) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    // Finished queries with nonzero tallies and fault counters, each at a
    // completed tick, so mutations land in every field the decoder checks.
    snapshot.completed_ticks = 1 + static_cast<int64_t>(rng.NextBelow(10));
    for (int64_t q = 0; q < 2; ++q) {
      FinishedQueryEntry entry;
      entry.query_index = q;
      entry.result.tick = snapshot.completed_ticks - 1;
      entry.result.query_name.assign(1, static_cast<char>('a' + q));
      entry.result.estimate = rng.NextDouble();
      entry.result.reports = static_cast<int64_t>(rng.NextBelow(100));
      for (int bit = 0; bit < 3; ++bit) {
        const int64_t total = 1 + static_cast<int64_t>(rng.NextBelow(50));
        entry.tallies.totals.push_back(total);
        entry.tallies.ones.push_back(static_cast<int64_t>(
            rng.NextBelow(static_cast<uint64_t>(total) + 1)));
      }
      entry.faults.injected_dropouts =
          1 + static_cast<int64_t>(rng.NextBelow(9));
      entry.faults.corrupt_reports_rejected =
          1 + static_cast<int64_t>(rng.NextBelow(9));
      snapshot.finished.push_back(entry);
    }
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
      ASSERT_EQ(out.finished, snapshot.finished) << iteration;
    }
  }
}

}  // namespace
}  // namespace bitpush
