// End-to-end reproducibility: the README promises that every experiment is
// reproducible bit-for-bit from a seed. These tests run each major
// protocol twice with identical seeds (expecting identical results) and
// with different seeds (expecting different randomness, i.e. no hidden
// global state or accidental seed reuse).

#include <filesystem>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/histogram_estimation.h"
#include "core/range_tree.h"
#include "core/variance_estimation.h"
#include "core/vector_aggregation.h"
#include "data/census.h"
#include "federated/round.h"
#include "federated/shard/runner.h"
#include "obs/alerts.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

class DeterminismTest : public ::testing::Test {
 protected:
  DeterminismTest() {
    Rng data_rng(7);
    ages_ = CensusAges(4000, data_rng);
    codewords_ = FixedPointCodec::Integer(7).EncodeAll(ages_.values());
  }

  Dataset ages_;
  std::vector<uint64_t> codewords_;
};

TEST_F(DeterminismTest, BasicBitPushing) {
  BitPushingConfig config;
  config.probabilities = {0.1, 0.1, 0.1, 0.1, 0.2, 0.2, 0.2};
  config.epsilon = 1.0;
  Rng a(42);
  Rng b(42);
  Rng c(43);
  const double first =
      RunBasicBitPushing(codewords_, config, a).estimate_codeword;
  const double second =
      RunBasicBitPushing(codewords_, config, b).estimate_codeword;
  const double other =
      RunBasicBitPushing(codewords_, config, c).estimate_codeword;
  EXPECT_DOUBLE_EQ(first, second);
  EXPECT_NE(first, other);
}

TEST_F(DeterminismTest, AdaptiveBitPushing) {
  AdaptiveConfig config;
  config.bits = 7;
  config.epsilon = 2.0;
  config.squash = SquashPolicy::Absolute(0.05);
  Rng a(11);
  Rng b(11);
  const AdaptiveResult first = RunAdaptiveBitPushing(codewords_, config, a);
  const AdaptiveResult second =
      RunAdaptiveBitPushing(codewords_, config, b);
  EXPECT_DOUBLE_EQ(first.estimate_codeword, second.estimate_codeword);
  EXPECT_EQ(first.round2_probabilities, second.round2_probabilities);
  EXPECT_EQ(first.kept, second.kept);
}

TEST_F(DeterminismTest, VarianceEstimation) {
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  Rng a(13);
  Rng b(13);
  EXPECT_DOUBLE_EQ(
      EstimateVariance(ages_.values(), codec, config, a).variance,
      EstimateVariance(ages_.values(), codec, config, b).variance);
}

TEST_F(DeterminismTest, HistogramAndRangeTree) {
  HistogramConfig histogram_config;
  histogram_config.edges = UniformEdges(0.0, 91.0, 13);
  histogram_config.epsilon = 1.0;
  Rng a(17);
  Rng b(17);
  EXPECT_EQ(EstimateHistogram(ages_.values(), histogram_config, a)
                .fractions,
            EstimateHistogram(ages_.values(), histogram_config, b)
                .fractions);

  RangeTreeConfig tree_config;
  tree_config.levels = 7;
  Rng c(19);
  Rng d(19);
  EXPECT_DOUBLE_EQ(
      EstimateRangeTree(codewords_, tree_config, c).Quantile(0.5),
      EstimateRangeTree(codewords_, tree_config, d).Quantile(0.5));
}

TEST_F(DeterminismTest, VectorAggregation) {
  std::vector<std::vector<double>> rows;
  for (size_t i = 0; i < ages_.values().size(); ++i) {
    rows.push_back({ages_.values()[i], 127.0 - ages_.values()[i]});
  }
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VectorAggregationConfig config;
  Rng a(23);
  Rng b(23);
  EXPECT_EQ(EstimateVectorMean(rows, codec, config, a).means,
            EstimateVectorMean(rows, codec, config, b).means);
}

TEST_F(DeterminismTest, FederatedQueryWithFaultPlan) {
  // A seeded FaultPlan plus a fixed protocol seed must reproduce the whole
  // faulted run byte-for-byte: identical estimate AND identical FaultStats
  // (every injection and reaction counter), across both rounds.
  FaultRates rates;
  rates.mid_round_dropout = 0.1;
  rates.straggler = 0.05;
  rates.corrupt_message = 0.05;
  rates.truncate_message = 0.05;
  rates.round_boundary_crash = 0.05;
  const FaultPlan plan(97, rates);
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config;
  config.adaptive.bits = 7;
  config.cohort.max_cohort_size = 3000;
  config.fault_plan = &plan;
  config.fault_policy.report_deadline_minutes = 30.0;
  config.fault_policy.max_backfill_rounds = 2;
  Rng a(31);
  Rng b(31);
  Rng c(32);
  const FederatedQueryResult first =
      RunFederatedMeanQuery(clients, codec, config, nullptr, a);
  const FederatedQueryResult second =
      RunFederatedMeanQuery(clients, codec, config, nullptr, b);
  const FederatedQueryResult other =
      RunFederatedMeanQuery(clients, codec, config, nullptr, c);
  EXPECT_DOUBLE_EQ(first.estimate, second.estimate);
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_EQ(first.round1.faults, second.round1.faults);
  EXPECT_EQ(first.round2.faults, second.round2.faults);
  EXPECT_EQ(first.round1.responded, second.round1.responded);
  EXPECT_EQ(first.round2.responded, second.round2.responded);
  EXPECT_EQ(first.used_static_fallback, second.used_static_fallback);
  // A different protocol seed shuffles a different cohort: the injected
  // fault set (keyed on client ids) lands differently.
  EXPECT_NE(first.estimate, other.estimate);
}

TEST_F(DeterminismTest, DurableCampaignReproducesAcrossRunsAndCrashes) {
  // The durable runner inherits the seed contract: two state directories
  // driven by the same seed produce identical histories and identical
  // meter ledgers — and so does a run that is cut off mid-campaign and
  // recovered from its journal.
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.value_id = 0;
  query.query.adaptive.bits = 7;
  query.query.cohort.max_cohort_size = 500;
  MeterPolicy policy;
  policy.max_bits_per_value = 2;

  struct RunResult {
    std::vector<CampaignTickResult> history;
    std::vector<uint8_t> meter;
    bool recovered = false;
  };
  auto run = [&](const std::string& dir, int64_t ticks) {
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = 321;
    options.fsync = false;
    DurableCampaignRunner runner({query}, policy, options);
    std::string error;
    EXPECT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < ticks; ++tick) {
      runner.RunTick(tick, codecs);
    }
    RunResult result;
    result.history = runner.campaign().history();
    runner.meter().EncodeTo(&result.meter);
    result.recovered = runner.recovery_info().recovered;
    return result;
  };
  const std::string base = ::testing::TempDir() + "/determinism";
  std::filesystem::remove_all(base);
  const RunResult first = run(base + "/a", 2);
  const RunResult second = run(base + "/b", 2);
  EXPECT_EQ(first.history, second.history);
  EXPECT_EQ(first.meter, second.meter);

  // Crash run c halfway through its journal, then recover and finish.
  run(base + "/c", 2);
  JournalReadResult journal;
  std::string error;
  ASSERT_TRUE(
      ReadJournal(base + "/c/journal.wal", 0, &journal, &error)) << error;
  ASSERT_TRUE(TruncateJournalToRecords(base + "/c/journal.wal",
                                       journal.records.size() / 2, &error))
      << error;

  const RunResult recovered = run(base + "/c", 2);
  EXPECT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.history, first.history);
  EXPECT_EQ(recovered.meter, first.meter);
  std::filesystem::remove_all(base);
}

TEST_F(DeterminismTest, ResilientQueryReproducesTheRecoverySchedule) {
  // With the resilience layer armed (retries, hedging under a finite
  // budget, breaker) the seed contract extends to the recovery schedule:
  // identical seeds reproduce the estimate AND every RetryStats counter,
  // backoff minutes included. The backoff jitter is keyed on the resilience
  // seed alone, so changing just that seed re-times the retries without
  // touching the protocol stream.
  FaultRates rates;
  rates.mid_round_dropout = 0.15;
  rates.straggler = 0.1;
  rates.corrupt_message = 0.05;
  const FaultPlan plan(97, rates);
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config;
  config.adaptive.bits = 7;
  config.cohort.max_cohort_size = 3000;
  config.fault_plan = &plan;
  config.fault_policy.report_deadline_minutes = 30.0;
  config.resilience.seed = 55;
  config.resilience.retry.max_retries_per_client = 3;
  config.resilience.hedge.enabled = true;

  Rng a(31);
  Rng b(31);
  Rng c(32);
  const FederatedQueryResult first =
      RunFederatedMeanQuery(clients, codec, config, nullptr, a);
  const FederatedQueryResult second =
      RunFederatedMeanQuery(clients, codec, config, nullptr, b);
  EXPECT_DOUBLE_EQ(first.estimate, second.estimate);
  EXPECT_EQ(first.retry, second.retry);
  EXPECT_EQ(first.round1.retry, second.round1.retry);
  EXPECT_EQ(first.round2.retry, second.round2.retry);
  EXPECT_EQ(first.faults, second.faults);
  EXPECT_GT(first.retry.RecoveredTotal(), 0);

  const FederatedQueryResult other =
      RunFederatedMeanQuery(clients, codec, config, nullptr, c);
  EXPECT_NE(first.estimate, other.estimate);

  FederatedQueryConfig retimed = config;
  retimed.resilience.seed = 56;
  Rng d(31);
  const FederatedQueryResult rescheduled =
      RunFederatedMeanQuery(clients, codec, retimed, nullptr, d);
  EXPECT_NE(rescheduled.retry.backoff_minutes, first.retry.backoff_minutes);

  // And the off switch still reproduces the schedule-free baseline.
  FederatedQueryConfig off = config;
  off.resilience = ResilienceConfig{};
  Rng e(31);
  const FederatedQueryResult disabled =
      RunFederatedMeanQuery(clients, codec, off, nullptr, e);
  EXPECT_EQ(disabled.retry, RetryStats{});
}

TEST_F(DeterminismTest, ResilientDurableCampaignReproducesAcrossCrashes) {
  // The crash-recovery determinism contract with every resilience
  // mechanism on: a recovered run converges on the history, ledger, AND
  // the exact journal — the replayed retry/hedge/breaker schedule — of an
  // uninterrupted run.
  FaultRates rates;
  rates.mid_round_dropout = 0.15;
  rates.straggler = 0.1;
  static const FaultPlan plan(59, rates);
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.value_id = 0;
  query.query.adaptive.bits = 7;
  query.query.cohort.max_cohort_size = 400;
  query.query.fault_plan = &plan;
  query.query.fault_policy.report_deadline_minutes = 30.0;
  MeterPolicy policy;
  policy.max_bits_per_value = 2;
  ResilienceConfig resilience;
  resilience.seed = 91;
  resilience.retry.max_retries_per_client = 2;
  resilience.hedge.enabled = true;
  resilience.breaker.consecutive_failures_to_open = 2;
  resilience.breaker.cooldown_rounds = 2;

  struct RunResult {
    std::vector<CampaignTickResult> history;
    std::vector<uint8_t> meter;
    std::vector<JournalRecord> journal;
    bool recovered = false;
  };
  auto run = [&](const std::string& dir, int64_t ticks) {
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = 654;
    options.fsync = false;
    DurableCampaignRunner runner({query}, policy, options, resilience);
    std::string error;
    EXPECT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < ticks; ++tick) {
      runner.RunTick(tick, codecs);
    }
    RunResult result;
    result.history = runner.campaign().history();
    runner.meter().EncodeTo(&result.meter);
    result.recovered = runner.recovery_info().recovered;
    JournalReadResult journal;
    EXPECT_TRUE(ReadJournal(dir + "/journal.wal", 0, &journal, &error))
        << error;
    result.journal = std::move(journal.records);
    return result;
  };
  const std::string base = ::testing::TempDir() + "/determinism_res";
  std::filesystem::remove_all(base);
  const RunResult first = run(base + "/a", 2);
  const RunResult second = run(base + "/b", 2);
  EXPECT_EQ(first.history, second.history);
  EXPECT_EQ(first.meter, second.meter);

  // The run's journaled round outcomes carry resilience decisions.
  RetryStats journaled;
  for (const JournalRecord& record : first.journal) {
    if (record.type != JournalRecordType::kRoundClosed) continue;
    RoundClosedRecord closed;
    ASSERT_TRUE(DecodeRoundClosedRecord(record.payload, &closed));
    journaled.MergeFrom(closed.outcome.retry);
  }
  EXPECT_GT(journaled.retries_scheduled + journaled.retransmits_requested, 0);
  EXPECT_GT(journaled.hedges_issued, 0);

  // Crash run c halfway through its journal, recover, and finish.
  run(base + "/c", 2);
  JournalReadResult journal;
  std::string error;
  ASSERT_TRUE(
      ReadJournal(base + "/c/journal.wal", 0, &journal, &error)) << error;
  ASSERT_TRUE(TruncateJournalToRecords(base + "/c/journal.wal",
                                       journal.records.size() / 2, &error))
      << error;

  const RunResult recovered = run(base + "/c", 2);
  EXPECT_TRUE(recovered.recovered);
  EXPECT_EQ(recovered.history, first.history);
  EXPECT_EQ(recovered.meter, first.meter);
  ASSERT_EQ(recovered.journal.size(), first.journal.size());
  for (size_t i = 0; i < first.journal.size(); ++i) {
    EXPECT_EQ(recovered.journal[i].type, first.journal[i].type) << i;
    EXPECT_EQ(recovered.journal[i].payload, first.journal[i].payload) << i;
  }
  std::filesystem::remove_all(base);
}

TEST_F(DeterminismTest, MetricsSnapshotReproducesAcrossRunsAndCrashes) {
  // The deterministic metrics snapshot (kStable instruments only,
  // canonical formatting) is part of the seed contract: two clean runs of
  // the same seeded campaign, and a run crashed mid-journal and recovered,
  // must all export byte-identical snapshots. Journal-only mode: a
  // snapshot would truncate the journal and with it the pre-crash round
  // records the recovered export re-applies.
  FaultRates rates;
  rates.mid_round_dropout = 0.15;
  rates.straggler = 0.1;
  static const FaultPlan plan(59, rates);
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.value_id = 0;
  query.query.adaptive.bits = 7;
  query.query.cohort.max_cohort_size = 400;
  query.query.fault_plan = &plan;
  query.query.fault_policy.report_deadline_minutes = 30.0;
  MeterPolicy policy;
  policy.max_bits_per_value = 2;
  ResilienceConfig resilience;
  resilience.seed = 91;
  resilience.retry.max_retries_per_client = 2;
  resilience.hedge.enabled = true;
  resilience.breaker.consecutive_failures_to_open = 2;
  resilience.breaker.cooldown_rounds = 2;

  auto run = [&](const std::string& dir, int64_t ticks) {
    obs::Registry::Default().Reset();
    obs::SetEnabled(true);
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = 654;
    options.fsync = false;
    DurableCampaignRunner runner({query}, policy, options, resilience);
    std::string error;
    EXPECT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < ticks; ++tick) {
      runner.RunTick(tick, codecs);
    }
    obs::SetEnabled(false);
    return obs::DeterministicMetricsSnapshot();
  };
  const std::string base = ::testing::TempDir() + "/determinism_obs";
  std::filesystem::remove_all(base);
  const std::string first = run(base + "/a", 2);
  const std::string second = run(base + "/b", 2);
  EXPECT_EQ(first, second);
  EXPECT_NE(first.find("counter bitpush_campaign_ticks_total 2"),
            std::string::npos);
  EXPECT_EQ(first.find("bitpush_campaign_ticks_total 0"),
            std::string::npos);

  // Crash run c halfway through its journal, recover, and re-export.
  run(base + "/c", 2);
  JournalReadResult journal;
  std::string error;
  ASSERT_TRUE(
      ReadJournal(base + "/c/journal.wal", 0, &journal, &error)) << error;
  ASSERT_TRUE(TruncateJournalToRecords(base + "/c/journal.wal",
                                       journal.records.size() / 2, &error))
      << error;

  const std::string recovered = run(base + "/c", 2);
  EXPECT_EQ(recovered, first);
  std::filesystem::remove_all(base);
}

TEST_F(DeterminismTest, StableEventsAndAlertTimelineReproduceAcrossCrashes) {
  // The flight recorder's stable stream and the fired-alert timeline join
  // the seed contract: two clean runs of the same seeded campaign, and a
  // run crashed mid-journal and recovered, must all produce byte-identical
  // DeterministicEventsSnapshot and AlertTimelineText artifacts. The query
  // runs on a two-tick cadence so the burn-rate rule exercises its full
  // lifecycle — fires on a spend tick, resolves on the idle tick after it.
  FaultRates rates;
  rates.mid_round_dropout = 0.15;
  rates.straggler = 0.1;
  static const FaultPlan plan(59, rates);
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.value_id = 0;
  query.cadence_ticks = 2;
  query.query.adaptive.bits = 7;
  query.query.cohort.max_cohort_size = 400;
  query.query.fault_plan = &plan;
  query.query.fault_policy.report_deadline_minutes = 30.0;
  MeterPolicy policy;
  policy.max_bits_per_value = 2;
  ResilienceConfig resilience;
  resilience.seed = 91;
  resilience.retry.max_retries_per_client = 2;
  resilience.hedge.enabled = true;
  resilience.breaker.consecutive_failures_to_open = 2;
  resilience.breaker.cooldown_rounds = 2;

  constexpr int64_t kTicks = 4;
  // Returns {stable events snapshot, alert timeline}.
  auto run = [&](const std::string& dir) {
    obs::EventRecorder::Default().Reset();
    obs::SetEnabled(true);
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = 654;
    options.fsync = false;
    DurableCampaignRunner runner({query}, policy, options, resilience);
    std::string error;
    EXPECT_TRUE(runner.Open(populations, &error)) << error;
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      runner.RunTick(tick, codecs);
    }
    // Evaluate the burn-rate rule over the recovery-stable per-tick meter
    // trajectory. The budget is twice the first tick's spend, so the spend
    // ticks (0, 2) project exhaustion inside the horizon and fire, and the
    // idle cadence ticks (1, 3) resolve.
    obs::AlertEngine engine;
    const auto& samples = runner.meter_by_tick();
    EXPECT_EQ(samples.size(), static_cast<size_t>(kTicks));
    EXPECT_GT(samples[0].bits_spent, 0);
    const int64_t budget = samples[0].bits_spent * 2;
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      obs::CampaignAlertInputs inputs;
      inputs.tick = tick;
      inputs.bits_spent = samples[static_cast<size_t>(tick)].bits_spent;
      inputs.denied_charges =
          samples[static_cast<size_t>(tick)].denied_charges;
      inputs.bits_budget = budget;
      engine.EvaluateCampaignTick(inputs);
    }
    obs::SetEnabled(false);
    return std::make_pair(obs::DeterministicEventsSnapshot(),
                          AlertTimelineText(engine));
  };
  const std::string base = ::testing::TempDir() + "/determinism_events";
  std::filesystem::remove_all(base);
  const auto first = run(base + "/a");
  const auto second = run(base + "/b");
  EXPECT_EQ(first.first, second.first);
  EXPECT_EQ(first.second, second.second);

  // The artifacts are non-trivial: stable round/meter events were emitted,
  // and the burn-rate alert both fired and resolved.
  EXPECT_NE(first.first.find("round_outcome"), std::string::npos)
      << first.first;
  EXPECT_NE(first.first.find("meter_charge"), std::string::npos)
      << first.first;
  EXPECT_NE(first.second.find("tick=0 fired privacy_burn_rate"),
            std::string::npos)
      << first.second;
  EXPECT_NE(first.second.find("tick=1 resolved privacy_burn_rate"),
            std::string::npos)
      << first.second;

  // Crash run c halfway through its journal, recover, and re-derive both
  // artifacts — byte-identical to the uninterrupted run.
  run(base + "/c");
  JournalReadResult journal;
  std::string error;
  ASSERT_TRUE(ReadJournal(base + "/c/journal.wal", 0, &journal, &error))
      << error;
  ASSERT_TRUE(TruncateJournalToRecords(base + "/c/journal.wal",
                                       journal.records.size() / 2, &error))
      << error;
  const auto recovered = run(base + "/c");
  EXPECT_EQ(recovered.first, first.first);
  EXPECT_EQ(recovered.second, first.second);

  // A kill loses what the last group commit did not cover, so the journal
  // it leaves ends at a commit: after a round close (the round is then
  // restored, not re-run) or after a tick close. Each recovers to the same
  // artifacts.
  ASSERT_TRUE(ReadJournal(base + "/a/journal.wal", 0, &journal, &error))
      << error;
  int commit_points = 0;
  for (size_t i = 0; i < journal.records.size(); ++i) {
    const JournalRecordType type = journal.records[i].type;
    if (type != JournalRecordType::kRoundClosed &&
        type != JournalRecordType::kCampaignTick) {
      continue;
    }
    ++commit_points;
    const std::string dir = base + "/commit_" + std::to_string(i + 1);
    std::filesystem::create_directories(dir);
    std::filesystem::copy_file(base + "/a/journal.wal", dir + "/journal.wal");
    ASSERT_TRUE(TruncateJournalToRecords(dir + "/journal.wal", i + 1, &error))
        << error;
    const auto at_commit = run(dir);
    EXPECT_EQ(at_commit.first, first.first) << "commit after record " << i;
    EXPECT_EQ(at_commit.second, first.second) << "commit after record " << i;
  }
  EXPECT_GT(commit_points, 4);
  std::filesystem::remove_all(base);
}

TEST_F(DeterminismTest, ShardedTraceStitchesMergeAndShardSpans) {
  // Cross-shard trace propagation: every per-shard collect span must be
  // parented under the merge tier's tick span via the context carried in
  // ShardTickFrame, for shard counts 2, 4, and 8, and the Chrome trace
  // export must render the hierarchy ids.
  constexpr int64_t kTicks = 2;
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.query.adaptive.bits = 7;
  query.query.adaptive.epsilon = 1.0;
  MeterPolicy policy;
  policy.max_bits_per_value = kTicks + 1;

  for (const int64_t shards : {int64_t{2}, int64_t{4}, int64_t{8}}) {
    obs::Tracer::Default().Reset();
    obs::SetTracingEnabled(true);
    ShardedCampaignOptions options;
    options.shards = shards;
    options.seed = 97;
    ShardedCampaignRunner runner({query}, policy, options);
    runner.Open(populations, codecs);
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      MergedTickResult out;
      std::string error;
      EXPECT_TRUE(runner.RunTick(tick, &out, &error)) << error;
    }
    obs::SetTracingEnabled(false);

    const std::vector<obs::SpanRecord> spans =
        obs::Tracer::Default().Snapshot();
    std::map<int64_t, int64_t> merge_trace_by_span;
    for (const obs::SpanRecord& span : spans) {
      if (span.name == "merge.tick") {
        EXPECT_EQ(span.parent_span_id, 0) << "merge.tick must be a root";
        merge_trace_by_span[span.span_id] = span.trace_id;
      }
    }
    EXPECT_EQ(merge_trace_by_span.size(), static_cast<size_t>(kTicks))
        << "one merge.tick root per tick at shards=" << shards;
    int64_t collect_spans = 0;
    for (const obs::SpanRecord& span : spans) {
      if (span.name != "shard.collect") continue;
      ++collect_spans;
      const auto parent = merge_trace_by_span.find(span.parent_span_id);
      ASSERT_NE(parent, merge_trace_by_span.end())
          << "shard.collect span not parented under a merge.tick span";
      EXPECT_EQ(span.trace_id, parent->second)
          << "collect span did not adopt the merge tick's trace id";
    }
    EXPECT_EQ(collect_spans, shards * kTicks) << "shards=" << shards;

    const std::string json = obs::ChromeTraceJson();
    std::string error;
    EXPECT_TRUE(obs::JsonIsWellFormed(json, &error)) << error;
    EXPECT_NE(json.find("\"parent\""), std::string::npos)
        << "Chrome export dropped the hierarchy ids";
  }
}

TEST_F(DeterminismTest, ShardedCampaignMatchesSingleCoordinator) {
  // The shard-out determinism contract (docs/SHARDING.md): a fault-free
  // N-shard run — per-shard campaigns, wire frames, kernel tally merge —
  // is bit-identical to the inline single-coordinator reference, and a
  // different root seed actually changes the randomness.
  constexpr int64_t kTicks = 2;
  constexpr int64_t kShards = 4;
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), ClientConfig{});
  const std::vector<const std::vector<Client>*> populations = {&clients};
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  CampaignQuery query;
  query.name = "ages";
  query.query.adaptive.bits = 7;
  query.query.adaptive.epsilon = 1.0;
  MeterPolicy policy;
  policy.max_bits_per_value = kTicks + 1;

  const auto run_sharded = [&](uint64_t seed) {
    ShardedCampaignOptions options;
    options.shards = kShards;
    options.seed = seed;
    ShardedCampaignRunner runner({query}, policy, options);
    runner.Open(populations, codecs);
    for (int64_t tick = 0; tick < kTicks; ++tick) {
      MergedTickResult out;
      std::string error;
      EXPECT_TRUE(runner.RunTick(tick, &out, &error)) << error;
    }
    return runner.history();
  };

  const std::vector<MergedTickResult> sharded = run_sharded(97);
  const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
      {query}, policy, kShards, 97, populations, codecs, kTicks);
  ASSERT_EQ(sharded.size(), reference.ticks.size());
  for (size_t t = 0; t < sharded.size(); ++t) {
    EXPECT_EQ(sharded[t], reference.ticks[t]) << "tick " << t;
  }

  const std::vector<MergedTickResult> reseeded = run_sharded(98);
  EXPECT_NE(reseeded[0].queries[0].estimate,
            sharded[0].queries[0].estimate)
      << "root seed is not reaching the shard campaigns";
}

TEST_F(DeterminismTest, FederatedQueryWithDropout) {
  ClientConfig flaky;
  flaky.dropout_probability = 0.3;
  const std::vector<Client> clients =
      MakePopulation(ages_.values(), flaky);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config;
  config.adaptive.bits = 7;
  Rng a(29);
  Rng b(29);
  const FederatedQueryResult first =
      RunFederatedMeanQuery(clients, codec, config, nullptr, a);
  const FederatedQueryResult second =
      RunFederatedMeanQuery(clients, codec, config, nullptr, b);
  EXPECT_DOUBLE_EQ(first.estimate, second.estimate);
  EXPECT_EQ(first.round1.responded, second.round1.responded);
}

}  // namespace
}  // namespace bitpush
