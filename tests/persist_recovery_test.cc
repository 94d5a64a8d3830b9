// Crash-recovery acceptance: a campaign killed at *every* journal-record
// boundary — and at arbitrary byte offsets inside the torn tail — recovers
// to byte-identical results, an identical privacy-meter ledger, and an
// identical bit-means cache, with every meter charge applied exactly once.

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
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

  // Runs ticks [next_tick, kTicks) to completion and returns the fingerprint
  // every crash point must reproduce: tick results, meter ledger bytes, and
  // the bit-means cache.
  struct Fingerprint {
    std::vector<CampaignTickResult> history;
    std::vector<uint8_t> meter;
    std::map<int64_t, std::vector<double>> bit_means;
  };
  Fingerprint RunToCompletion(DurableCampaignRunner* runner) {
    for (int64_t tick = runner->next_tick(); tick < kTicks; ++tick) {
      runner->RunTick(tick, populations_, codecs_);
    }
    Fingerprint fingerprint;
    fingerprint.history = runner->campaign().history();
    runner->meter().EncodeTo(&fingerprint.meter);
    fingerprint.bit_means = runner->bit_means_cache();
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
  ASSERT_TRUE(runner.Open(&error)) << error;
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
  ASSERT_TRUE(runner.Open(&error)) << error;
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
  ASSERT_TRUE(runner.Open(&error)) << error;
  std::vector<std::vector<JournalRecord>> after_tick;
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    runner.RunTick(tick, populations_, codecs_);
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
    EXPECT_TRUE(runner.Open(&error)) << error;
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      const int64_t before = JournalCounter("bitpush_journal_fsyncs_total");
      runner.RunTick(tick, populations, codecs_);
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
  ASSERT_TRUE(baseline.Open(&error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline);

  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(base_dir + "/journal.wal", 0, &journal, &error))
      << error;
  ASSERT_FALSE(journal.torn_tail);
  const size_t total = journal.records.size();
  ASSERT_GT(total, 100u);  // both queries, both rounds, charges, reports

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
    ASSERT_TRUE(runner.Open(&error)) << "k=" << k << ": " << error;
    EXPECT_EQ(runner.recovery_info().recovered, k > 0) << k;
    EXPECT_EQ(runner.recovery_info().replayed_records,
              static_cast<int64_t>(k))
        << k;
    const Fingerprint actual = RunToCompletion(&runner);
    ASSERT_EQ(actual.history, expected.history) << "diverged at k=" << k;
    ASSERT_EQ(actual.meter, expected.meter)
        << "meter ledger diverged at k=" << k
        << " (a charge was dropped or double-applied)";
    ASSERT_EQ(actual.bit_means, expected.bit_means) << k;
  }
}

TEST_F(RecoveryTest, KillAtEveryRecordRecoversWithPeriodicSnapshotsOn) {
  // Regression: with snapshot_every_ticks > 0, the automatic snapshot used
  // to abort a recovering coordinator — it fired at restored-tick
  // boundaries while the replay prefix was still pending, and even after
  // the prefix was fully consumed it was never discarded, so Snapshot()'s
  // empty-prefix CHECK failed. Every mid-query crash point must now
  // recover, defer the snapshot to the first live boundary, and converge
  // on the uninterrupted fingerprint.
  const std::string base_dir = FreshDir("snapkill_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(&error)) << error;
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
    ASSERT_TRUE(runner.Open(&error)) << "k=" << k << ": " << error;
    const Fingerprint actual = RunToCompletion(&runner);
    ASSERT_EQ(actual.history, expected.history) << "diverged at k=" << k;
    ASSERT_EQ(actual.meter, expected.meter)
        << "meter ledger diverged at k=" << k;
    ASSERT_EQ(actual.bit_means, expected.bit_means) << k;

    // The (possibly deferred) snapshot landed once the run went live: a
    // second recovery starts from it with an empty journal tail.
    DurableCampaignRunner again(MakeQueries(), policy_, options);
    ASSERT_TRUE(again.Open(&error)) << "k=" << k << ": " << error;
    EXPECT_TRUE(again.recovery_info().had_snapshot) << k;
    EXPECT_EQ(again.recovery_info().completed_ticks, kTicks) << k;
    EXPECT_EQ(again.recovery_info().replayed_records, 0) << k;
  }
}

TEST_F(RecoveryTest, TornTailBytesAreDiscardedAndRecoveryProceeds) {
  const std::string base_dir = FreshDir("torn_base");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir));
  std::string error;
  ASSERT_TRUE(baseline.Open(&error)) << error;
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
    ASSERT_TRUE(runner.Open(&error)) << "cut=" << cut << ": " << error;
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
  ASSERT_TRUE(runner.Open(&error)) << error;
  const Fingerprint expected = RunToCompletion(&runner);

  // Every tick snapshotted: the journal holds nothing past the last one.
  JournalReadResult journal;
  ASSERT_TRUE(ReadJournal(dir + "/journal.wal", 0, &journal, &error));
  EXPECT_TRUE(journal.records.empty());

  DurableCampaignRunner recovered(MakeQueries(), policy_, options);
  ASSERT_TRUE(recovered.Open(&error)) << error;
  EXPECT_TRUE(recovered.recovery_info().had_snapshot);
  EXPECT_EQ(recovered.recovery_info().completed_ticks, kTicks);
  EXPECT_EQ(recovered.next_tick(), 0);
  const Fingerprint actual = RunToCompletion(&recovered);
  EXPECT_EQ(actual.history, expected.history);
  EXPECT_EQ(actual.meter, expected.meter);
  EXPECT_EQ(actual.bit_means, expected.bit_means);
}

TEST_F(RecoveryTest, RecoveryRefusesAForeignSeed) {
  const std::string dir = FreshDir("seed");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    std::string error;
    ASSERT_TRUE(runner.Open(&error)) << error;
    RunToCompletion(&runner);
  }
  options.seed = kSeed + 1;
  DurableCampaignRunner imposter(MakeQueries(), policy_, options);
  std::string error;
  EXPECT_FALSE(imposter.Open(&error));
  EXPECT_NE(error.find("seed"), std::string::npos) << error;
}

TEST_F(RecoveryTest, RecoveryRefusesAForeignMeterPolicy) {
  const std::string dir = FreshDir("policy");
  DurableCampaignOptions options = Options(dir);
  options.snapshot_every_ticks = 1;
  {
    DurableCampaignRunner runner(MakeQueries(), policy_, options);
    std::string error;
    ASSERT_TRUE(runner.Open(&error)) << error;
    RunToCompletion(&runner);
  }
  MeterPolicy loosened = policy_;
  loosened.max_bits_per_client = 1000;
  DurableCampaignRunner imposter(MakeQueries(), loosened, options);
  std::string error;
  EXPECT_FALSE(imposter.Open(&error));
  EXPECT_NE(error.find("policy"), std::string::npos) << error;
}

TEST_F(RecoveryTest, FullResultsHoldOnlyTheLatestTick) {
  // Each full result carries both rounds' per-client id lists, so keeping
  // every tick's would grow with the campaign; its reader (the shard
  // harvest) only ever looks up the tick it just ran.
  DurableCampaignRunner runner(MakeQueries(), policy_,
                               Options(FreshDir("latest_tick")));
  std::string error;
  ASSERT_TRUE(runner.Open(&error)) << error;
  for (int64_t tick = 0; tick < 4; ++tick) {
    runner.RunTick(tick, populations_, codecs_);
  }
  std::vector<std::pair<int64_t, int64_t>> keys;
  for (const auto& [key, outcome] : runner.full_results()) {
    keys.push_back(key);
  }
  const std::vector<std::pair<int64_t, int64_t>> latest = {{3, 0}, {3, 1}};
  EXPECT_EQ(keys, latest);
}

std::vector<uint8_t> FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
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
    EXPECT_TRUE(runner.Open(&error)) << error;
    Run out;
    for (int64_t tick = 0; tick < 4; ++tick) {
      out.ticks.push_back(runner.RunTick(tick, populations_, codecs_));
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
    ASSERT_TRUE(runner.Open(&error)) << error;
    runner.RunTick(0, populations_, codecs_);
    ASSERT_TRUE(runner.Snapshot(&error)) << error;
    runner.RunTick(1, populations_, codecs_);
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
  EXPECT_FALSE(reopened.Open(&error));
  EXPECT_NE(error.find("snapshot failed validation"), std::string::npos)
      << error;
  EXPECT_EQ(FileBytes(dir + "/journal.wal"), journal);
}

}  // namespace
}  // namespace bitpush
