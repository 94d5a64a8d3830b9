// Crash-recovery acceptance: a campaign killed at *every* journal-record
// boundary — and at arbitrary byte offsets inside the torn tail — recovers
// to byte-identical results, an identical privacy-meter ledger, and an
// identical bit-means cache, with every meter charge applied exactly once.

#include <cstdint>
#include <cstdio>
#include <filesystem>
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
#include "rng/rng.h"

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

TEST_F(RecoveryTest, OpenSessionsSurviveSnapshots) {
  const std::string dir = FreshDir("session");
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir));
  std::string error;
  ASSERT_TRUE(runner.Open(&error)) << error;

  SessionConfig config;
  config.probabilities = {0.5, 0.25, 0.25};
  config.epsilon = 1.0;
  config.round_id = 3;
  config.value_id = 9;
  const int64_t index =
      runner.AddSession(FixedPointCodec::Integer(3), config);
  CollectionSession* session = runner.session(index);
  for (int64_t client = 1; client <= 20; ++client) {
    BitRequest request;
    ASSERT_TRUE(session->IssueAssignment(client, &request));
    if (client % 2 == 0) {
      BitReport report;
      report.client_id = client;
      report.bit_index = request.bit_index;
      report.bit = 1;
      ASSERT_EQ(session->SubmitReport(report), ReportRejection::kAccepted);
    }
  }
  ASSERT_TRUE(runner.Snapshot(&error)) << error;

  DurableCampaignRunner recovered(MakeQueries(), policy_, Options(dir));
  ASSERT_TRUE(recovered.Open(&error)) << error;
  ASSERT_EQ(recovered.session_count(), 1);
  CollectionSession* restored = recovered.session(0);
  EXPECT_EQ(restored->state(), SessionState::kCollecting);
  EXPECT_EQ(restored->assignments_issued(), 20);
  EXPECT_EQ(restored->accepted_reports(), 10);
  EXPECT_DOUBLE_EQ(restored->Estimate(), session->Estimate());
  // The restored session re-encodes to the exact bytes of the original.
  std::vector<uint8_t> before;
  std::vector<uint8_t> after;
  session->EncodeTo(&before);
  restored->EncodeTo(&after);
  EXPECT_EQ(before, after);
  // And keeps collecting: the deficit allocation continues where it left
  // off, so the next assignments match on both objects.
  BitRequest a;
  BitRequest b;
  ASSERT_TRUE(session->IssueAssignment(999, &a));
  ASSERT_TRUE(restored->IssueAssignment(999, &b));
  EXPECT_EQ(a.bit_index, b.bit_index);
}

}  // namespace
}  // namespace bitpush
