// Crash-recovery acceptance: a campaign killed at *every* journal-record
// boundary — and at arbitrary byte offsets inside the torn tail — recovers
// to byte-identical results, an identical privacy-meter ledger and an
// identical journal, with every meter charge applied exactly once.

#include <sys/stat.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/faults.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "persist/snapshot.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

constexpr uint64_t kSeed = 2024;
constexpr int64_t kTicks = 2;

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

// Writes the first `count` of `records` as a journal file: the disk state
// a kill leaves behind.
void WriteJournalPrefix(const std::string& path,
                        const std::vector<JournalRecord>& records,
                        size_t count) {
  std::vector<uint8_t> bytes;
  for (size_t i = 0; i < count; ++i) {
    AppendJournalFrame(records[i].type, records[i].seq, records[i].payload,
                       &bytes);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class RecoveryTest : public ::testing::Test {
 protected:
  RecoveryTest() {
    Rng data_rng(7);
    const Dataset ages = CensusAges(60, data_rng);
    population_ = MakePopulation(ages.values(), ClientConfig{});
    codecs_ = {FixedPointCodec::Integer(7), FixedPointCodec::Integer(7)};
    populations_ = {&population_, &population_};

    FaultRates rates;
    rates.mid_round_dropout = 0.1;
    rates.corrupt_message = 0.05;
    rates.truncate_message = 0.05;
    plan_.emplace(97, rates);

    // Tight caps so the run exercises both granted and denied charges:
    // metric "b" shares client budget with "a" and runs out mid-campaign.
    policy_.max_bits_per_value = 1;
    policy_.max_bits_per_client = 2;
    policy_.max_epsilon_per_client = 100.0;
  }

  ~RecoveryTest() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::vector<CampaignQuery> MakeQueries() const {
    std::vector<CampaignQuery> queries;
    for (int i = 0; i < 2; ++i) {
      CampaignQuery query;
      query.name = std::string(1, static_cast<char>('a' + i));
      query.value_id = i;
      query.cadence_ticks = 1;
      query.query.adaptive.bits = 7;
      query.query.fault_plan = &*plan_;
      query.query.fault_policy.report_deadline_minutes = 30.0;
      queries.push_back(query);
    }
    return queries;
  }

  std::string FreshDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "/recovery_" + tag;
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  DurableCampaignOptions Options(const std::string& dir) const {
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = kSeed;
    options.fsync = false;  // hundreds of journals in this suite
    return options;
  }

  // Runs ticks [next_tick, ticks) to completion and returns the fingerprint
  // every crash point must reproduce: tick results and meter ledger bytes.
  struct Fingerprint {
    std::vector<CampaignTickResult> history;
    std::vector<uint8_t> meter;
  };
  Fingerprint RunToCompletion(DurableCampaignRunner* runner,
                              int64_t ticks = kTicks) {
    for (int64_t tick = runner->next_tick(); tick < ticks; ++tick) {
      runner->RunTick(tick, codecs_);
    }
    Fingerprint fingerprint;
    fingerprint.history = runner->campaign().history();
    runner->meter().EncodeTo(&fingerprint.meter);
    return fingerprint;
  }

  std::vector<Client> population_;
  std::vector<const std::vector<Client>*> populations_;
  std::vector<FixedPointCodec> codecs_;
  std::optional<FaultPlan> plan_;
  MeterPolicy policy_;
  std::vector<std::string> dirs_;
};

TEST_F(RecoveryTest, FreshRunReportsNothingRecovered) {
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(FreshDir("fresh")));
  std::string error;
  ASSERT_TRUE(runner.Open(populations_, &error)) << error;
  EXPECT_FALSE(runner.recovery_info().recovered);
  const Fingerprint fingerprint = RunToCompletion(&runner);
  ASSERT_EQ(fingerprint.history.size(), 2u * kTicks);
  // The tight budget makes metric "b" run at tick 0 and starve later.
  EXPECT_EQ(fingerprint.history[0].status, CampaignTickResult::Status::kRan);
  EXPECT_EQ(fingerprint.history[1].status, CampaignTickResult::Status::kRan);
  EXPECT_GT(runner.meter().denied_charges(), 0);
}

TEST_F(RecoveryTest, DurableRunMatchesPlainCampaign) {
  // Journaling must be an observer: the durable runner's results are
  // byte-identical to a bare MeasurementCampaign driven by the same seed.
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(FreshDir("obs")));
  std::string error;
  ASSERT_TRUE(runner.Open(populations_, &error)) << error;
  const Fingerprint durable = RunToCompletion(&runner);

  PrivacyMeter meter(policy_);
  MeasurementCampaign plain(MakeQueries(), &meter);
  Rng rng(kSeed);
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    plain.RunTick(tick, populations_, codecs_, rng);
  }
  EXPECT_EQ(durable.history, plain.history());
  std::vector<uint8_t> plain_meter;
  meter.EncodeTo(&plain_meter);
  EXPECT_EQ(durable.meter, plain_meter);
}

TEST_F(RecoveryTest, EveryTickLeavesExactlyTheAppendedRecordsOnDisk) {
  // Group commit: whatever a tick appended is on disk when RunTick
  // returns — the results it hands back may leave the coordinator.
  const std::string dir = FreshDir("committed");
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
  std::string error;
  ASSERT_TRUE(runner.Open(populations_, &error)) << error;
  std::vector<std::vector<JournalRecord>> after_tick;
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    runner.RunTick(tick, codecs_);
    EXPECT_EQ(runner.uncommitted_records(), 0) << tick;
    JournalReadResult journal;
    ASSERT_TRUE(ReadJournal(dir + "/journal.wal", 0, &journal, &error))
        << error;
    EXPECT_FALSE(journal.torn_tail) << tick;
    EXPECT_EQ(static_cast<int64_t>(journal.records.size()),
              runner.journal_records())
        << tick;
    after_tick.push_back(std::move(journal.records));
  }
  // Each tick's file is a prefix of the final one: nothing written earlier
  // is rewritten or reordered later.
  const std::vector<JournalRecord>& final_records = after_tick.back();
  for (size_t t = 0; t + 1 < after_tick.size(); ++t) {
    ASSERT_LT(after_tick[t].size(), final_records.size()) << t;
    for (size_t i = 0; i < after_tick[t].size(); ++i) {
      EXPECT_EQ(after_tick[t][i].seq, final_records[i].seq);
      EXPECT_EQ(after_tick[t][i].type, final_records[i].type);
      EXPECT_EQ(after_tick[t][i].payload, final_records[i].payload);
    }
  }
}

int64_t JournalCounter(const std::string& name) {
  int64_t value = 0;
  obs::Registry::Default().Visit(
      [&](const obs::InstrumentInfo& info, const obs::Counter* counter,
          const obs::Gauge*, const obs::Histogram*) {
        if (counter != nullptr && info.name == name) value = counter->value();
      });
  return value;
}

TEST_F(RecoveryTest, FsyncsPerTickDoNotGrowWithTheCohort) {
  // Records grow with the number of clients; commits, and so fsyncs, are
  // per round and per tick.
  MeterPolicy loose;
  loose.max_bits_per_value = 4;
  loose.max_bits_per_client = 8;
  const std::vector<CampaignQuery> queries = MakeQueries();
  auto run = [&](int64_t n, std::vector<int64_t>* fsyncs_by_tick) {
    Rng data_rng(11);
    const std::vector<Client> population =
        MakePopulation(CensusAges(n, data_rng).values(), ClientConfig{});
    const std::vector<const std::vector<Client>*> populations = {&population,
                                                                 &population};
    DurableCampaignOptions options = Options(FreshDir("fsyncs_" +
                                                      std::to_string(n)));
    options.fsync = true;
    obs::Registry::Default().Reset();
    obs::SetEnabled(true);
    DurableCampaignRunner runner(queries, loose, options);
    std::string error;
    EXPECT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      const int64_t before = JournalCounter("bitpush_journal_fsyncs_total");
      runner.RunTick(tick, codecs_);
      fsyncs_by_tick->push_back(
          JournalCounter("bitpush_journal_fsyncs_total") - before);
    }
    const int64_t records = JournalCounter("bitpush_journal_records_total");
    obs::SetEnabled(false);
    return records;
  };
  std::vector<int64_t> small_fsyncs;
  std::vector<int64_t> large_fsyncs;
  const int64_t small_records = run(200, &small_fsyncs);
  const int64_t large_records = run(2000, &large_fsyncs);
  EXPECT_EQ(small_fsyncs, large_fsyncs);
  for (const int64_t fsyncs : small_fsyncs) EXPECT_GT(fsyncs, 0);
  EXPECT_GT(large_records, 5 * small_records);
}

TEST_F(RecoveryTest, KillAtEveryJournalRecordRecoversIdentically) {
  // The uninterrupted run's journal is ground truth. For every prefix of k
  // records (k = 0 .. N) recovery must converge on the same fingerprint.
  // That covers every disk state a SIGKILL can leave: group commit only
  // ever leaves a prefix ending at a commit or at a full-buffer write.
  const std::string base_dir = FreshDir("baseline");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline);
  const std::vector<uint8_t> expected_journal =
      FileBytes(base_dir + "/journal.wal");

  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(base_dir + "/journal.wal", 0, &journal, &error))
      << error;
  ASSERT_FALSE(journal.torn_tail);
  const size_t total = journal.records.size();
  ASSERT_GT(total, 100u);  // both queries, both rounds, their charges

  int64_t denied_seen = 0;
  for (const JournalRecord& record : journal.records) {
    if (record.type != JournalRecordType::kMeterCharge) continue;
    MeterChargeRecord charge;
    ASSERT_TRUE(DecodeMeterChargeRecord(record.payload, &charge));
    if (!charge.granted) ++denied_seen;
  }
  ASSERT_GT(denied_seen, 0);  // the crash matrix covers denial records too

  for (size_t k = 0; k <= total; ++k) {
    const std::string dir = FreshDir("kill_" + std::to_string(k));
    std::filesystem::create_directories(dir);
    std::vector<uint8_t> prefix_bytes;
    for (size_t i = 0; i < k; ++i) {
      AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                         journal.records[i].payload, &prefix_bytes);
    }
    std::FILE* file = std::fopen((dir + "/journal.wal").c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!prefix_bytes.empty()) {
      // k == 0 writes an empty journal, and an empty vector's data() may
      // be null, which fwrite declares nonnull.
      ASSERT_EQ(std::fwrite(prefix_bytes.data(), 1, prefix_bytes.size(), file),
                prefix_bytes.size());
    }
    std::fclose(file);

    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    ASSERT_TRUE(runner.Open(populations_, &error)) << "k=" << k << ": " << error;
    EXPECT_EQ(runner.recovery_info().recovered, k > 0) << k;
    EXPECT_EQ(runner.recovery_info().replayed_records,
              static_cast<int64_t>(k))
        << k;
    const Fingerprint actual = RunToCompletion(&runner);
    ASSERT_EQ(actual.history, expected.history) << "diverged at k=" << k;
    ASSERT_EQ(actual.meter, expected.meter)
        << "meter ledger diverged at k=" << k
        << " (a charge was dropped or double-applied)";
    // The re-executed rounds append exactly the records the kill lost.
    ASSERT_EQ(FileBytes(dir + "/journal.wal"), expected_journal) << k;
  }
}

TEST_F(RecoveryTest, KillAtEveryRecordRecoversWithPeriodicSnapshotsOn) {
  // With snapshot_every_ticks > 0, an automatic snapshot comes due at
  // restored-tick boundaries, some while the in-flight query's closed
  // rounds are still held, their charges not yet re-applied. The restored
  // prefix is read-only, so none is taken there; every crash point must
  // recover, snapshot at the next live boundary, and converge on the
  // uninterrupted fingerprint.
  const std::string base_dir = FreshDir("snapkill_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline);

  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(base_dir + "/journal.wal", 0, &journal, &error))
      << error;
  const size_t total = journal.records.size();
  ASSERT_GT(total, 100u);

  for (size_t k = 0; k <= total; ++k) {
    const std::string dir = FreshDir("snapkill_" + std::to_string(k));
    std::filesystem::create_directories(dir);
    std::vector<uint8_t> prefix_bytes;
    for (size_t i = 0; i < k; ++i) {
      AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                         journal.records[i].payload, &prefix_bytes);
    }
    std::FILE* file = std::fopen((dir + "/journal.wal").c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!prefix_bytes.empty()) {
      // k == 0 writes an empty journal; empty data() may be null.
      ASSERT_EQ(std::fwrite(prefix_bytes.data(), 1, prefix_bytes.size(), file),
                prefix_bytes.size());
    }
    std::fclose(file);

    DurableCampaignOptions options = Options(dir);
    options.snapshot_every_ticks = 1;
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    ASSERT_TRUE(runner.Open(populations_, &error)) << "k=" << k << ": " << error;
    const Fingerprint actual = RunToCompletion(&runner);
    ASSERT_EQ(actual.history, expected.history) << "diverged at k=" << k;
    ASSERT_EQ(actual.meter, expected.meter)
        << "meter ledger diverged at k=" << k;

    // The last live tick's snapshot landed: a second recovery starts from
    // it with an empty journal tail. A prefix that held every tick left no
    // tick to run live, and a restored tick writes nothing, so there the
    // second recovery replays the same journal without a snapshot.
    const bool ran_live = runner.recovery_info().completed_ticks < kTicks;
    DurableCampaignRunner again(MakeQueries(), policy_, options);
    ASSERT_TRUE(again.Open(populations_, &error)) << "k=" << k << ": " << error;
    EXPECT_EQ(again.recovery_info().had_snapshot, ran_live) << k;
    EXPECT_EQ(again.recovery_info().completed_ticks, kTicks) << k;
    EXPECT_EQ(again.recovery_info().replayed_records,
              ran_live ? 0 : static_cast<int64_t>(k))
        << k;
  }
}

TEST_F(RecoveryTest, TornTailBytesAreDiscardedAndRecoveryProceeds) {
  const std::string base_dir = FreshDir("torn_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline);

  std::vector<uint8_t> full;
  {
    std::FILE* file = std::fopen((base_dir + "/journal.wal").c_str(), "rb");
    ASSERT_NE(file, nullptr);
    uint8_t chunk[4096];
    size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
      full.insert(full.end(), chunk, chunk + n);
    }
    std::fclose(file);
  }
  // Mid-frame cuts: every 997th byte offset keeps the suite fast while
  // landing at unaligned positions across the whole file.
  for (size_t cut = 1; cut < full.size(); cut += 997) {
    const std::string dir = FreshDir("torn_" + std::to_string(cut));
    std::filesystem::create_directories(dir);
    std::FILE* file = std::fopen((dir + "/journal.wal").c_str(), "wb");
    ASSERT_NE(file, nullptr);
    ASSERT_EQ(std::fwrite(full.data(), 1, cut, file), cut);
    std::fclose(file);

    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    ASSERT_TRUE(runner.Open(populations_, &error)) << "cut=" << cut << ": " << error;
    const Fingerprint actual = RunToCompletion(&runner);
    ASSERT_EQ(actual.history, expected.history) << "cut=" << cut;
    ASSERT_EQ(actual.meter, expected.meter) << "cut=" << cut;
  }
}

TEST_F(RecoveryTest, SnapshotTruncatesJournalAndRecoveryUsesIt) {
  const std::string dir = FreshDir("snap");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  DurableCampaignRunner runner(MakeQueries(), policy_, options);
  std::string error;
  ASSERT_TRUE(runner.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&runner);

  // Every tick snapshotted: the journal holds nothing past the last one.
  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(dir + "/journal.wal", 0, &journal, &error));
  EXPECT_TRUE(journal.records.empty());

  DurableCampaignRunner recovered(MakeQueries(), policy_, options);
  ASSERT_TRUE(recovered.Open(populations_, &error)) << error;
  EXPECT_TRUE(recovered.recovery_info().had_snapshot);
  EXPECT_EQ(recovered.recovery_info().completed_ticks, kTicks);
  EXPECT_EQ(recovered.next_tick(), 0);
  const Fingerprint actual = RunToCompletion(&recovered);
  EXPECT_EQ(actual.history, expected.history);
  EXPECT_EQ(actual.meter, expected.meter);
}

TEST_F(RecoveryTest, SnapshotTruncatedJournalCanBeCut) {
  // After a snapshot the journal starts past sequence 0. The cut tool still
  // cuts it, the first-frame reader reads the cut whole, and recovery from
  // the cut converges on the uninterrupted run.
  constexpr int64_t kRunTicks = 3;
  DurableCampaignOptions clean_options = Options(FreshDir("cut_clean"));
  clean_options.snapshot_every_ticks = 2;
  DurableCampaignRunner clean(MakeQueries(), policy_, clean_options);
  std::string error;
  ASSERT_TRUE(clean.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&clean, kRunTicks);

  const std::string clean_dir = clean_options.state_dir;
  CoordinatorSnapshot snapshot;
  bool found = false;
  ASSERT_TRUE(
      LoadSnapshotFile(SnapshotPath(clean_dir), &snapshot, &found, &error))
      << error;
  ASSERT_TRUE(found);
  ASSERT_EQ(snapshot.completed_ticks, 2);
  ASSERT_GT(snapshot.journal_next_seq, 0u);
  JournalReadResult journal;
  ASSERT_TRUE(
      ReadJournalFromFirstFrame(JournalPath(clean_dir), &journal, &error))
      << error;
  const size_t total = journal.records.size();
  ASSERT_GT(total, 2u);
  ASSERT_EQ(journal.records.front().seq, snapshot.journal_next_seq);

  for (const size_t k : {size_t{1}, total / 2, total - 1}) {
    const std::string dir = FreshDir("cut_" + std::to_string(k));
    std::filesystem::copy(clean_dir, dir,
                          std::filesystem::copy_options::recursive);
    ASSERT_TRUE(TruncateJournalToRecords(JournalPath(dir), k, &error))
        << "k=" << k << ": " << error;
    JournalReadResult cut;
    ASSERT_TRUE(ReadJournalFromFirstFrame(JournalPath(dir), &cut, &error))
        << error;
    ASSERT_EQ(cut.records.size(), k);
    EXPECT_EQ(cut.records.front().seq, snapshot.journal_next_seq) << k;
    EXPECT_EQ(cut.next_seq, snapshot.journal_next_seq + k) << k;
    EXPECT_FALSE(cut.torn_tail) << k;

    DurableCampaignOptions options = clean_options;
    options.state_dir = dir;
    DurableCampaignRunner reopened(MakeQueries(), policy_, options);
    ASSERT_TRUE(reopened.Open(populations_, &error)) << "k=" << k << ": " << error;
    EXPECT_TRUE(reopened.recovery_info().had_snapshot) << k;
    const Fingerprint actual = RunToCompletion(&reopened, kRunTicks);
    EXPECT_EQ(actual.history, expected.history) << k;
    EXPECT_EQ(actual.meter, expected.meter) << k;
  }
}

TEST_F(RecoveryTest, RecoveryRefusesAForeignSeed) {
  const std::string dir = FreshDir("seed");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    RunToCompletion(&runner);
  }
  options.seed = kSeed + 1;
  DurableCampaignRunner imposter(MakeQueries(), policy_, options);
  std::string error;
  EXPECT_FALSE(imposter.Open(populations_, &error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(RecoveryTest, RecoveryRefusesAForeignMeterPolicy) {
  const std::string dir = FreshDir("policy");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    RunToCompletion(&runner);
  }
  MeterPolicy loosened = policy_;
  loosened.max_bits_per_client = 1000;
  DurableCampaignRunner imposter(MakeQueries(), loosened, options);
  std::string error;
  EXPECT_FALSE(imposter.Open(populations_, &error));
  EXPECT_NE(error.find("policy"), std::string::npos) << error;
}

TEST_F(RecoveryTest, RecoveryRefusesALedgerNamingIdsOutsideTheCampaign) {
  // Open binds the meter to the populations and the queries' values before
  // it decodes the snapshot's ledger, so a ledger entry naming a client
  // outside the populations, or a value no query measures, fails
  // validation. A ledger of the campaign's own ids opens.
  const std::string dir = FreshDir("foreign_ids");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    RunToCompletion(&runner);
  }
  CoordinatorSnapshot snapshot;
  bool found = false;
  std::string error;
  ASSERT_TRUE(LoadSnapshotFile(SnapshotPath(dir), &snapshot, &found, &error))
      << error;
  ASSERT_TRUE(found);
  struct Entry {
    int64_t client_id = 0;
    int64_t value_id = 0;
    bool opens = false;
  };
  const int64_t member = population_.front().id();
  const int64_t outsider = population_.back().id() + 1;
  for (const Entry& entry : {Entry{member, 1, true}, Entry{outsider, 1, false},
                             Entry{member, 2, false}}) {
    PrivacyMeter ledger(policy_);
    ASSERT_TRUE(ledger.TryChargeBit(entry.client_id, entry.value_id, 0.0));
    snapshot.meter_blob.clear();
    ledger.EncodeTo(&snapshot.meter_blob);
    ASSERT_TRUE(WriteSnapshotFile(SnapshotPath(dir), snapshot, &error))
        << error;
    DurableCampaignRunner reopened(MakeQueries(), policy_, options);
    error.clear();
    EXPECT_EQ(reopened.Open(populations_, &error), entry.opens)
        << entry.client_id << " " << entry.value_id << ": " << error;
    if (!entry.opens) {
      EXPECT_NE(error.find("ledger failed validation"), std::string::npos)
          << error;
    }
  }
}

TEST_F(RecoveryTest, InMemoryRunnerMatchesDurableRunner) {
  // An empty state_dir runs the same runner without a journal: the tick
  // results, the ledger and the per-tick meter trajectory equal a durable
  // run's, nothing is written, and a second runner re-executes from tick 0
  // to the same results.
  struct Run {
    std::vector<std::vector<CampaignTickResult>> ticks;
    std::vector<uint8_t> meter;
    std::vector<std::pair<int64_t, int64_t>> meter_by_tick;
  };
  const auto run = [&](const std::string& state_dir) {
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(state_dir));
    std::string error;
    EXPECT_TRUE(runner.Open(populations_, &error)) << error;
    Run out;
    for (int64_t tick = 0; tick < 4; ++tick) {
      out.ticks.push_back(runner.RunTick(tick, codecs_));
    }
    runner.meter().EncodeTo(&out.meter);
    for (const auto& sample : runner.meter_by_tick()) {
      out.meter_by_tick.emplace_back(sample.bits_spent,
                                     sample.denied_charges);
    }
    EXPECT_FALSE(runner.recovery_info().recovered);
    return out;
  };
  // Where an empty state_dir's files would land if the runner did I/O.
  const std::vector<std::string> stray_paths = {
      "/journal.wal", "/snapshot.bin", "journal.wal", "snapshot.bin"};
  for (const std::string& path : stray_paths) {
    ASSERT_FALSE(std::filesystem::exists(path)) << path;
  }

  const Run durable = run(FreshDir("memory_twin"));
  obs::Registry::Default().Reset();
  obs::SetEnabled(true);
  const Run memory = run("");
  const int64_t opens = JournalCounter("bitpush_recovery_opens_total");
  const int64_t records = JournalCounter("bitpush_journal_records_total");
  obs::SetEnabled(false);
  const Run rerun = run("");

  ASSERT_EQ(memory.ticks.size(), 4u);
  EXPECT_EQ(memory.ticks, durable.ticks);
  EXPECT_EQ(memory.meter, durable.meter);
  EXPECT_EQ(memory.meter_by_tick, durable.meter_by_tick);
  EXPECT_EQ(rerun.ticks, memory.ticks);
  EXPECT_EQ(rerun.meter, memory.meter);
  // The tight budget makes the meter deny charges, so the ledgers differ
  // from any run that skipped or double-applied one.
  EXPECT_GT(memory.meter_by_tick.back().second, 0);
  EXPECT_EQ(opens, 0);
  EXPECT_EQ(records, 0);
  for (const std::string& path : stray_paths) {
    EXPECT_FALSE(std::filesystem::exists(path)) << path;
  }
}

TEST_F(RecoveryTest, VersionOneSnapshotFailsClosed) {
  // A state dir written before the snapshot dropped its open-sessions
  // field: format byte 1 and a zero session count ahead of the breaker
  // blob. Open must refuse it with an error, not abort, and leave the
  // journal as it found it.
  const std::string dir = FreshDir("v1_snapshot");
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    runner.RunTick(0, codecs_);
    ASSERT_TRUE(runner.Snapshot(&error)) << error;
    runner.RunTick(1, codecs_);
  }
  const std::string snapshot_path = dir + "/snapshot.bin";
  const std::vector<uint8_t> current = FileBytes(snapshot_path);
  ASSERT_GT(current.size(), 13u);
  ASSERT_EQ(current[4], kSnapshotFormatVersion);
  // Drop the CRC; the body ends with the breaker blob's length (zero: this
  // campaign has no breaker).
  std::vector<uint8_t> version1(current.begin(), current.end() - 4);
  ASSERT_EQ(std::vector<uint8_t>(version1.end() - 4, version1.end()),
            std::vector<uint8_t>(4, 0));
  version1[4] = 1;
  version1.insert(version1.end() - 4, {0, 0, 0, 0});  // session count
  bytes::PutUint32(bytes::Crc32(version1.data(), version1.size()),
                   &version1);
  {
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(version1.data()),
              static_cast<std::streamsize>(version1.size()));
  }
  ASSERT_EQ(FileBytes(snapshot_path), version1);
  const std::vector<uint8_t> journal = FileBytes(dir + "/journal.wal");
  ASSERT_FALSE(journal.empty());

  DurableCampaignRunner reopened(MakeQueries(), policy_, Options(dir));
  std::string error;
  EXPECT_FALSE(reopened.Open(populations_, &error));
  EXPECT_NE(error.find("snapshot failed validation"), std::string::npos)
      << error;
  EXPECT_EQ(FileBytes(dir + "/journal.wal"), journal);
}

TEST_F(RecoveryTest, VersionTwoSnapshotFailsClosed) {
  // A state dir written before finished entries kept their tallies: format
  // byte 2, each entry with its tick ahead of the query index and its final
  // bit means in place of tallies and fault counters, then a bit-means
  // section. Open must refuse it with an error, not abort, and leave the
  // journal as it found it.
  const std::string dir = FreshDir("v2_snapshot");
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    runner.RunTick(0, codecs_);
    ASSERT_TRUE(runner.Snapshot(&error)) << error;
    runner.RunTick(1, codecs_);
  }
  const std::string snapshot_path = dir + "/snapshot.bin";
  CoordinatorSnapshot current;
  ASSERT_TRUE(DecodeCoordinatorSnapshot(FileBytes(snapshot_path), &current));
  ASSERT_EQ(current.finished.size(), 2u);
  std::vector<uint8_t> version2 = {'B', 'P', 'S', 'N', 2};
  bytes::PutUint64(current.base_seed, &version2);
  bytes::PutUint64(current.journal_next_seq, &version2);
  bytes::PutInt64(current.completed_ticks, &version2);
  bytes::PutUint32(static_cast<uint32_t>(current.meter_blob.size()),
                   &version2);
  version2.insert(version2.end(), current.meter_blob.begin(),
                  current.meter_blob.end());
  bytes::PutUint32(static_cast<uint32_t>(current.finished.size()), &version2);
  std::vector<std::vector<double>> means;
  for (const FinishedQueryEntry& entry : current.finished) {
    means.emplace_back();
    for (int j = 0; j < entry.tallies.bits(); ++j) {
      means.back().push_back(
          static_cast<double>(entry.tallies.ones[static_cast<size_t>(j)]) /
          static_cast<double>(entry.tallies.totals[static_cast<size_t>(j)]));
    }
    bytes::PutInt64(entry.result.tick, &version2);
    bytes::PutInt64(entry.query_index, &version2);
    EncodeCampaignTickResult(entry.result, &version2);
    bytes::PutDoubleVector(means.back(), &version2);
  }
  bytes::PutUint32(static_cast<uint32_t>(means.size()), &version2);
  for (size_t value_id = 0; value_id < means.size(); ++value_id) {
    bytes::PutInt64(static_cast<int64_t>(value_id), &version2);
    bytes::PutDoubleVector(means[value_id], &version2);
  }
  bytes::PutUint32(static_cast<uint32_t>(current.health_blob.size()),
                   &version2);
  version2.insert(version2.end(), current.health_blob.begin(),
                  current.health_blob.end());
  bytes::PutUint32(bytes::Crc32(version2.data(), version2.size()),
                   &version2);
  {
    std::ofstream out(snapshot_path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(version2.data()),
              static_cast<std::streamsize>(version2.size()));
  }
  ASSERT_EQ(FileBytes(snapshot_path), version2);
  const std::vector<uint8_t> journal = FileBytes(dir + "/journal.wal");
  ASSERT_FALSE(journal.empty());

  DurableCampaignRunner reopened(MakeQueries(), policy_, Options(dir));
  std::string error;
  EXPECT_FALSE(reopened.Open(populations_, &error));
  EXPECT_NE(error.find("snapshot failed validation"), std::string::npos)
      << error;
  EXPECT_EQ(FileBytes(dir + "/journal.wal"), journal);
}

TEST_F(RecoveryTest, ChargesOfARoundThatNeverClosedAreDiscarded) {
  // A kill after the 64 KiB buffer spilled mid-round leaves a round's
  // charges on disk without its kRoundClosed record. Open validates them
  // and drops them from the journal; the round re-executes from its RNG
  // fork, appending the same charges again.
  const std::string base_dir = FreshDir("discard_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline);
  const std::vector<uint8_t> expected_journal =
      FileBytes(base_dir + "/journal.wal");
  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(base_dir + "/journal.wal", 0, &journal, &error))
      << error;

  int64_t cuts = 0;
  size_t kept = 0;  // records up to the last round, query or tick record
  for (size_t cut = 0; cut < journal.records.size(); ++cut) {
    const JournalRecordType type = journal.records[cut].type;
    if (type == JournalRecordType::kRoundClosed && cut > kept) {
      // Cut just before a round close whose round has charges.
      const std::string dir = FreshDir("discard_" + std::to_string(cut));
      std::filesystem::create_directories(dir);
      WriteJournalPrefix(dir + "/journal.wal", journal.records, cut);
      {
        DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
        ASSERT_TRUE(runner.Open(populations_, &error)) << "cut=" << cut << ": " << error;
        EXPECT_EQ(runner.recovery_info().replayed_records,
                  static_cast<int64_t>(cut));
        JournalReadResult rewritten;
        ASSERT_TRUE(ReadJournal(dir + "/journal.wal", 0, &rewritten, &error))
            << error;
        ASSERT_EQ(rewritten.records.size(), kept) << "cut=" << cut;
        if (kept > 0) {
          EXPECT_NE(rewritten.records.back().type,
                    JournalRecordType::kMeterCharge);
          EXPECT_EQ(rewritten.records.back().payload,
                    journal.records[kept - 1].payload);
        }
      }
      DurableCampaignRunner again(MakeQueries(), policy_, Options(dir));
      ASSERT_TRUE(again.Open(populations_, &error)) << "cut=" << cut << ": " << error;
      EXPECT_EQ(again.recovery_info().replayed_records,
                static_cast<int64_t>(kept));
      const Fingerprint actual = RunToCompletion(&again);
      EXPECT_EQ(actual.history, expected.history) << "cut=" << cut;
      EXPECT_EQ(actual.meter, expected.meter) << "cut=" << cut;
      EXPECT_EQ(FileBytes(dir + "/journal.wal"), expected_journal)
          << "cut=" << cut;
      ++cuts;
    }
    if (type != JournalRecordType::kMeterCharge) kept = cut + 1;
  }
  EXPECT_GE(cuts, 2 * kTicks);
}

// The inode of the file at `path`. A rewrite renames a new file over the
// journal, so a kept journal is the one whose inode did not change.
ino_t InodeOf(const std::string& path) {
  struct stat info {};
  EXPECT_EQ(::stat(path.c_str(), &info), 0) << path;
  return info.st_ino;
}

TEST_F(RecoveryTest, OpenKeepsAJournalThatHoldsExactlyWhatItKeeps) {
  // A clean reopen keeps every record, so Open leaves the journal as it is
  // (same bytes, same inode). With fsync on, Open syncs the kept file
  // instead of rewriting it. After a snapshot the journal starts past
  // sequence 0 and is kept too.
  struct Case {
    const char* tag;
    bool fsync;
    int64_t snapshot_every;
    int64_t ticks;
  };
  for (const Case& c :
       {Case{"keep", false, 0, 1}, Case{"keep_fsync", true, 0, 1},
        Case{"keep_snap", false, 2, 3}}) {
    std::string error;
    DurableCampaignOptions options = Options(FreshDir(c.tag));
    options.fsync = c.fsync;
    options.snapshot_every_ticks = c.snapshot_every;
    const std::string path = JournalPath(options.state_dir);
    {
      DurableCampaignRunner first(MakeQueries(), policy_, options);
      ASSERT_TRUE(first.Open(populations_, &error)) << error;
      RunToCompletion(&first, c.ticks);
    }
    const std::vector<uint8_t> before = FileBytes(path);
    const ino_t inode = InodeOf(path);
    ASSERT_FALSE(before.empty()) << c.tag;

    DurableCampaignRunner reopened(MakeQueries(), policy_, options);
    ASSERT_TRUE(reopened.Open(populations_, &error)) << c.tag << ": " << error;
    EXPECT_TRUE(reopened.recovery_info().recovered) << c.tag;
    EXPECT_EQ(reopened.recovery_info().completed_ticks, c.ticks) << c.tag;
    EXPECT_EQ(FileBytes(path), before) << c.tag;
    EXPECT_EQ(InodeOf(path), inode) << c.tag;
  }
}

TEST_F(RecoveryTest, AppendsResumeOnAKeptJournal) {
  // The run a reopen finishes appends to the kept file, which ends as the
  // uninterrupted run's journal.
  const std::string clean_dir = FreshDir("resume_clean");
  DurableCampaignRunner clean(MakeQueries(), policy_, Options(clean_dir));
  std::string error;
  ASSERT_TRUE(clean.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&clean);

  const std::string dir = FreshDir("resume");
  {
    DurableCampaignRunner first(MakeQueries(), policy_, Options(dir));
    ASSERT_TRUE(first.Open(populations_, &error)) << error;
    RunToCompletion(&first, 1);
  }
  const ino_t inode = InodeOf(JournalPath(dir));
  DurableCampaignRunner reopened(MakeQueries(), policy_, Options(dir));
  ASSERT_TRUE(reopened.Open(populations_, &error)) << error;
  const Fingerprint actual = RunToCompletion(&reopened);
  EXPECT_EQ(actual.history, expected.history);
  EXPECT_EQ(actual.meter, expected.meter);
  EXPECT_EQ(InodeOf(JournalPath(dir)), inode);
  EXPECT_EQ(FileBytes(JournalPath(dir)), FileBytes(JournalPath(clean_dir)));
}

TEST_F(RecoveryTest, OpenRewritesAJournalThatHoldsMoreThanItKeeps) {
  const std::string base_dir = FreshDir("rewrite_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  RunToCompletion(&baseline);
  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(JournalPath(base_dir), 0, &journal, &error))
      << error;
  const size_t total = journal.records.size();
  ASSERT_EQ(journal.records.back().type, JournalRecordType::kCampaignTick);

  // Opens the state directory `dir` and requires a new journal file that
  // holds `kept` records and no torn tail.
  const auto expect_rewritten = [&](const std::string& dir, size_t kept) {
    const std::string path = JournalPath(dir);
    const bool existed = std::filesystem::exists(path);
    const ino_t inode = existed ? InodeOf(path) : 0;
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    ASSERT_TRUE(runner.Open(populations_, &error)) << dir << ": " << error;
    ASSERT_TRUE(std::filesystem::exists(path)) << dir;
    if (existed) {
      EXPECT_NE(InodeOf(path), inode) << dir;
    }
    JournalReadResult rewritten;
    ASSERT_TRUE(ReadJournal(path, 0, &rewritten, &error)) << error;
    EXPECT_FALSE(rewritten.torn_tail) << dir;
    EXPECT_EQ(rewritten.stale_records, 0u) << dir;
    EXPECT_EQ(rewritten.records.size(), kept) << dir;
  };

  // A torn tail: the cut frame is dropped.
  const std::string torn = FreshDir("rewrite_torn");
  std::filesystem::copy(base_dir, torn);
  ASSERT_TRUE(TearJournalTail(JournalPath(torn), 3, &error)) << error;
  expect_rewritten(torn, total - 1);

  // The charges of a round that never closed: cut just before the first
  // round close, whose round has charges. Every record before it goes.
  size_t first_close = 0;
  while (journal.records[first_close].type !=
         JournalRecordType::kRoundClosed) {
    ++first_close;
  }
  ASSERT_GT(first_close, 0u);
  const std::string unclosed = FreshDir("rewrite_unclosed");
  std::filesystem::create_directories(unclosed);
  WriteJournalPrefix(JournalPath(unclosed), journal.records, first_close);
  expect_rewritten(unclosed, 0);

  // A stale prefix: the crash landed between a snapshot's rename and the
  // journal truncation after it, so the journal still holds the records
  // the snapshot covers.
  const std::string stale = FreshDir("rewrite_stale");
  std::vector<uint8_t> covered;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(stale));
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    RunToCompletion(&runner, 1);
    covered = FileBytes(JournalPath(stale));
    ASSERT_TRUE(runner.Snapshot(&error)) << error;
  }
  {
    std::ofstream out(JournalPath(stale), std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(covered.data()),
              static_cast<std::streamsize>(covered.size()));
  }
  expect_rewritten(stale, 0);

  // The same stale prefix followed by the charges of a round that never
  // closed: no frame is kept, and none of the stale ones either.
  const std::string stale_unclosed = FreshDir("rewrite_stale_unclosed");
  std::filesystem::copy(stale, stale_unclosed);
  {
    size_t next = 0;
    while (journal.records[next].type != JournalRecordType::kCampaignTick) {
      ++next;
    }
    size_t close = ++next;
    while (journal.records[close].type != JournalRecordType::kRoundClosed) {
      ++close;
    }
    ASSERT_GT(close, next);
    std::vector<uint8_t> bytes = covered;
    for (size_t i = next; i < close; ++i) {
      ASSERT_EQ(journal.records[i].type, JournalRecordType::kMeterCharge);
      AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                         journal.records[i].payload, &bytes);
    }
    std::ofstream out(JournalPath(stale_unclosed),
                      std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  expect_rewritten(stale_unclosed, 0);

  // A missing journal: a fresh state directory, and one whose journal is
  // gone beside its snapshot.
  expect_rewritten(FreshDir("rewrite_fresh"), 0);
  std::filesystem::remove(JournalPath(stale));
  expect_rewritten(stale, 0);
}

using RecoveryDeathTest = RecoveryTest;

TEST_F(RecoveryDeathTest, RestoredRoundOverAnotherCohortAbortsAsDivergence) {
  // The journal holds the in-flight query's closed round 1. Reopened over
  // a population with one more client, the re-executed query draws a
  // different cohort, so the round's cohort digest no longer matches.
  const std::string base_dir = FreshDir("divergence_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  RunToCompletion(&baseline);
  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(base_dir + "/journal.wal", 0, &journal, &error))
      << error;
  size_t cut = 0;
  while (cut < journal.records.size() &&
         journal.records[cut].type != JournalRecordType::kRoundClosed) {
    ++cut;
  }
  ASSERT_LT(cut, journal.records.size());

  const std::string dir = FreshDir("divergence");
  std::filesystem::create_directories(dir);
  WriteJournalPrefix(dir + "/journal.wal", journal.records, cut + 1);
  std::vector<Client> grown = population_;
  grown.emplace_back(static_cast<int64_t>(grown.size()),
                     std::vector<double>{40.0}, ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&grown,
                                                               &grown};
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
  ASSERT_TRUE(runner.Open(populations, &error)) << error;
  EXPECT_DEATH(runner.RunTick(0, codecs_), "recovery divergence");
}

TEST_F(RecoveryTest, VersionOneJournalFailsClosed) {
  // A journal framed with version byte 1, as a build with eight record
  // types wrote it. Open must refuse it with an error, not abort, and
  // leave the file as it found it.
  const std::string dir = FreshDir("v1_journal");
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
    std::string error;
    ASSERT_TRUE(runner.Open(populations_, &error)) << error;
    runner.RunTick(0, codecs_);
  }
  const std::string path = dir + "/journal.wal";
  JournalReadResult journal;
  std::string error;
  ASSERT_TRUE(ReadJournal(path, 0, &journal, &error)) << error;
  ASSERT_FALSE(journal.records.empty());
  std::vector<uint8_t> version1;
  for (const JournalRecord& record : journal.records) {
    std::vector<uint8_t> frame;
    AppendJournalFrame(record.type, record.seq, record.payload, &frame);
    ASSERT_EQ(frame[0], kJournalFormatVersion);
    frame[0] = 1;
    frame.erase(frame.end() - 4, frame.end());  // the CRC
    bytes::PutUint32(bytes::Crc32(frame), &frame);
    version1.insert(version1.end(), frame.begin(), frame.end());
  }
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(version1.data()),
              static_cast<std::streamsize>(version1.size()));
  }
  ASSERT_EQ(FileBytes(path), version1);

  DurableCampaignRunner reopened(MakeQueries(), policy_, Options(dir));
  EXPECT_FALSE(reopened.Open(populations_, &error));
  EXPECT_NE(error.find("format version"), std::string::npos) << error;
  EXPECT_EQ(FileBytes(path), version1);
}

}  // namespace
}  // namespace bitpush
