// Chaos suite for the resilient collection layer (federated/resilience.h).
//
// Three layers of coverage: unit contracts (backoff schedule, deadline
// budgets, wire codecs, the circuit-breaker state machine), end-to-end
// recovery semantics over the fault-injection layer (retransmissions never
// double-charge the privacy meter, hedges are free when cancelled, a fault
// plan that used to force the round-1 static-policy fallback completes the
// adaptive round 2 once retries are on), and the crash matrix: a resilient
// durable campaign killed at every journal-record boundary recovers to a
// byte-identical journal, ledger, and history — the journaled round
// outcomes' retry and hedge counters included.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/privacy_meter.h"
#include "data/census.h"
#include "federated/campaign.h"
#include "federated/faults.h"
#include "federated/latency.h"
#include "federated/persist_hooks.h"
#include "federated/resilience.h"
#include "federated/round.h"
#include "federated/server.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

RetryPolicy EnabledRetryPolicy(int64_t per_client = 3) {
  RetryPolicy policy;
  policy.max_retries_per_client = per_client;
  return policy;
}

// ---------------------------------------------------------------------------
// RetrySchedule: the deterministic backoff schedule.

TEST(RetrySchedule, BackoffIsDeterministicAndSeedSensitive) {
  const RetryPolicy policy = EnabledRetryPolicy(5);
  const RetrySchedule a(11, policy);
  const RetrySchedule b(11, policy);
  const RetrySchedule c(12, policy);
  int differs = 0;
  for (int64_t round = 1; round <= 2; ++round) {
    for (int64_t client = 0; client < 200; ++client) {
      for (int64_t attempt = 1; attempt <= 5; ++attempt) {
        const double backoff = a.BackoffMinutes(round, client, attempt);
        EXPECT_EQ(backoff, b.BackoffMinutes(round, client, attempt));
        differs +=
            backoff != c.BackoffMinutes(round, client, attempt) ? 1 : 0;
      }
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(RetrySchedule, BackoffStaysWithinBaseAndCap) {
  RetryPolicy policy = EnabledRetryPolicy(6);
  policy.base_backoff_minutes = 0.5;
  policy.cap_backoff_minutes = 8.0;
  const RetrySchedule schedule(99, policy);
  bool saw_above_base = false;
  for (int64_t client = 0; client < 500; ++client) {
    for (int64_t attempt = 1; attempt <= 6; ++attempt) {
      const double backoff = schedule.BackoffMinutes(1, client, attempt);
      ASSERT_GE(backoff, policy.base_backoff_minutes);
      ASSERT_LE(backoff, policy.cap_backoff_minutes);
      saw_above_base = saw_above_base || backoff > policy.base_backoff_minutes;
    }
  }
  // Decorrelated jitter actually jitters: not every draw collapses to base.
  EXPECT_TRUE(saw_above_base);
}

// ---------------------------------------------------------------------------
// DeadlineBudget: propagation arithmetic.

TEST(DeadlineBudget, DefaultIsInfiniteAndInert) {
  const DeadlineBudget budget;
  EXPECT_FALSE(budget.finite());
  EXPECT_FALSE(budget.Fraction(0.25).finite());
  EXPECT_FALSE(budget.Split(4).finite());
  EXPECT_EQ(budget.ClampDeadline(30.0), 30.0);
  EXPECT_EQ(budget.ClampDeadline(kInf), kInf);
}

TEST(DeadlineBudget, FiniteBudgetFractionsSplitsAndClamps) {
  const DeadlineBudget budget{120.0};
  EXPECT_TRUE(budget.finite());
  EXPECT_DOUBLE_EQ(budget.Fraction(0.25).minutes, 30.0);
  EXPECT_DOUBLE_EQ(budget.Split(4).minutes, 30.0);
  // The budget is the binding deadline when it is tighter than the flat
  // per-round deadline, and vice versa.
  EXPECT_DOUBLE_EQ(DeadlineBudget{40.0}.ClampDeadline(30.0), 30.0);
  EXPECT_DOUBLE_EQ(DeadlineBudget{40.0}.ClampDeadline(100.0), 40.0);
  EXPECT_DOUBLE_EQ(DeadlineBudget{40.0}.ClampDeadline(kInf), 40.0);
}

// ---------------------------------------------------------------------------
// RetryStats: merge arithmetic and wire frames.

RetryStats DistinctStats() {
  RetryStats stats;
  stats.retries_scheduled = 1;
  stats.retransmits_requested = 2;
  stats.retry_reports_recovered = 3;
  stats.retries_exhausted = 4;
  stats.retry_budget_denied = 5;
  stats.deadline_denied = 6;
  stats.hedges_issued = 7;
  stats.hedges_cancelled = 8;
  stats.hedge_reports = 9;
  stats.hedge_failures = 10;
  stats.hedge_dedup_drops = 11;
  stats.breaker_skips = 12;
  stats.breaker_probes = 13;
  stats.breaker_opens = 14;
  stats.breaker_closes = 15;
  stats.backoff_minutes = 16.5;
  stats.elapsed_minutes = 17.25;
  return stats;
}

TEST(RetryStats, RecoveredTotalAndMergeCoverEveryField) {
  const RetryStats stats = DistinctStats();
  EXPECT_EQ(stats.RecoveredTotal(),
            stats.retry_reports_recovered + stats.hedge_reports);
  RetryStats merged = DistinctStats();
  merged.MergeFrom(stats);
  // Doubling every field proves MergeFrom touches all of them.
  std::vector<uint8_t> one;
  std::vector<uint8_t> two;
  EncodeRetryStats(stats, &one);
  EncodeRetryStats(merged, &two);
  RetryStats decoded;
  size_t offset = 0;
  ASSERT_TRUE(DecodeRetryStats(two, &offset, &decoded));
  EXPECT_EQ(decoded.retries_scheduled, 2 * stats.retries_scheduled);
  EXPECT_EQ(decoded.breaker_closes, 2 * stats.breaker_closes);
  EXPECT_DOUBLE_EQ(decoded.elapsed_minutes, 2 * stats.elapsed_minutes);
}

// The counter block rides inside kRoundClosed journal records and shard
// tick frames, decoded from wherever the enclosing payload has reached:
// both tests start it one byte into the buffer.
TEST(RetryStats, FrameRoundTrips) {
  const RetryStats stats = DistinctStats();
  std::vector<uint8_t> buffer = {0xAB};
  EncodeRetryStats(stats, &buffer);
  RetryStats decoded;
  size_t offset = 1;
  ASSERT_TRUE(DecodeRetryStats(buffer, &offset, &decoded));
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(decoded, stats);
}

TEST(RetryStats, FrameFailsClosed) {
  // A rejected block leaves the offset where it was and `*out` untouched.
  const auto expect_rejected = [](const std::vector<uint8_t>& buffer,
                                  const std::string& what) {
    RetryStats decoded = DistinctStats();
    size_t offset = 1;
    EXPECT_FALSE(DecodeRetryStats(buffer, &offset, &decoded)) << what;
    EXPECT_EQ(offset, 1u) << what;
    EXPECT_EQ(decoded, DistinctStats()) << what;
  };
  const auto encoded = [](const RetryStats& stats) {
    std::vector<uint8_t> buffer = {0xAB};
    EncodeRetryStats(stats, &buffer);
    return buffer;
  };
  // Every truncation, down to no block at all.
  const std::vector<uint8_t> whole = encoded(DistinctStats());
  for (size_t length = 1; length < whole.size(); ++length) {
    expect_rejected(
        std::vector<uint8_t>(whole.begin(),
                             whole.begin() + static_cast<ptrdiff_t>(length)),
        "truncated to " + std::to_string(length));
  }
  // Negative counters, first and last.
  RetryStats negative = DistinctStats();
  negative.retries_scheduled = -1;
  expect_rejected(encoded(negative), "negative retries_scheduled");
  negative = DistinctStats();
  negative.breaker_closes = -1;
  expect_rejected(encoded(negative), "negative breaker_closes");
  // Non-finite or negative minutes.
  for (const double minutes : {kInf, -kInf, std::nan(""), -1.0}) {
    RetryStats bad = DistinctStats();
    bad.backoff_minutes = minutes;
    expect_rejected(encoded(bad), "backoff_minutes " + std::to_string(minutes));
    bad = DistinctStats();
    bad.elapsed_minutes = minutes;
    expect_rejected(encoded(bad), "elapsed_minutes " + std::to_string(minutes));
  }
}

// ---------------------------------------------------------------------------
// HealthTracker: the per-client circuit-breaker state machine.

TEST(HealthTracker, DisabledPolicyAlwaysAssigns) {
  HealthTracker tracker;
  EXPECT_FALSE(tracker.policy().enabled());
  tracker.ObserveRound(1, {}, {5, 5, 5, 5});
  EXPECT_EQ(tracker.Decision(5), AssignmentDecision::kAssign);
  EXPECT_EQ(tracker.opens(), 0);
  EXPECT_EQ(tracker.quarantined_clients(), 0);
}

TEST(HealthTracker, ConsecutiveFailuresOpenAndSuccessfulProbeCloses) {
  BreakerPolicy policy;
  policy.consecutive_failures_to_open = 2;
  policy.cooldown_rounds = 1;
  HealthTracker tracker(policy);

  tracker.BeginRound();
  tracker.ObserveRound(1, {}, {5});
  EXPECT_EQ(tracker.state(5), BreakerState::kClosed);
  EXPECT_EQ(tracker.Decision(5), AssignmentDecision::kAssign);

  tracker.BeginRound();
  tracker.ObserveRound(2, {}, {5});
  EXPECT_EQ(tracker.state(5), BreakerState::kOpen);
  EXPECT_EQ(tracker.Decision(5), AssignmentDecision::kSkip);
  EXPECT_EQ(tracker.opens(), 1);
  EXPECT_EQ(tracker.quarantined_clients(), 1);

  // Cooldown elapses at the next round boundary: one probe is allowed.
  tracker.BeginRound();
  EXPECT_EQ(tracker.state(5), BreakerState::kHalfOpen);
  EXPECT_EQ(tracker.Decision(5), AssignmentDecision::kProbe);
  EXPECT_EQ(tracker.quarantined_clients(), 1);

  // The probe came back: breaker closes and the history resets, so the
  // next single failure does not immediately re-open.
  tracker.ObserveRound(3, {5}, {});
  EXPECT_EQ(tracker.state(5), BreakerState::kClosed);
  EXPECT_EQ(tracker.Decision(5), AssignmentDecision::kAssign);
  EXPECT_EQ(tracker.closes(), 1);
  EXPECT_EQ(tracker.quarantined_clients(), 0);
  tracker.BeginRound();
  tracker.ObserveRound(4, {}, {5});
  EXPECT_EQ(tracker.state(5), BreakerState::kClosed);
}

TEST(HealthTracker, FailedProbeReopensImmediately) {
  BreakerPolicy policy;
  policy.consecutive_failures_to_open = 2;
  policy.cooldown_rounds = 1;
  HealthTracker tracker(policy);
  tracker.ObserveRound(1, {}, {7});
  tracker.ObserveRound(2, {}, {7});
  ASSERT_EQ(tracker.state(7), BreakerState::kOpen);
  tracker.BeginRound();
  ASSERT_EQ(tracker.state(7), BreakerState::kHalfOpen);
  tracker.ObserveRound(3, {}, {7});
  EXPECT_EQ(tracker.state(7), BreakerState::kOpen);
  EXPECT_EQ(tracker.opens(), 2);
  EXPECT_EQ(tracker.closes(), 0);
}

TEST(HealthTracker, FailureRateTriggerNeedsMinimumSamples) {
  BreakerPolicy policy;
  policy.failure_rate_to_open = 0.5;
  policy.min_samples_for_rate = 4;
  HealthTracker tracker(policy);
  // success, fail, success, fail: the rate hits 0.5 at the 2nd sample, but
  // the trigger must wait for 4.
  tracker.ObserveRound(1, {9}, {});
  tracker.ObserveRound(2, {}, {9});
  EXPECT_EQ(tracker.state(9), BreakerState::kClosed);
  tracker.ObserveRound(3, {9}, {});
  tracker.ObserveRound(4, {}, {9});
  EXPECT_EQ(tracker.state(9), BreakerState::kOpen);
  EXPECT_EQ(tracker.opens(), 1);
}

TEST(HealthTracker, StateSurvivesEncodeDecodeAndPolicyMismatchFailsClosed) {
  BreakerPolicy policy;
  policy.consecutive_failures_to_open = 2;
  policy.cooldown_rounds = 3;
  HealthTracker tracker(policy);
  tracker.ObserveRound(1, {1, 2}, {3, 4});
  tracker.ObserveRound(2, {1}, {3, 4, 2});
  ASSERT_EQ(tracker.state(3), BreakerState::kOpen);
  ASSERT_EQ(tracker.state(4), BreakerState::kOpen);

  std::vector<uint8_t> blob;
  tracker.EncodeTo(&blob);
  HealthTracker restored(policy);
  size_t offset = 0;
  ASSERT_TRUE(HealthTracker::DecodeFrom(blob, &offset, &restored));
  EXPECT_EQ(offset, blob.size());
  std::vector<uint8_t> round_trip;
  restored.EncodeTo(&round_trip);
  EXPECT_EQ(round_trip, blob);
  EXPECT_EQ(restored.state(3), BreakerState::kOpen);
  EXPECT_EQ(restored.opens(), tracker.opens());
  EXPECT_EQ(restored.quarantined_clients(), tracker.quarantined_clients());
  // The restored tracker continues the cooldown exactly where it stopped.
  restored.BeginRound();
  tracker.BeginRound();
  EXPECT_EQ(restored.state(3), tracker.state(3));

  BreakerPolicy other = policy;
  other.cooldown_rounds = 1;
  HealthTracker mismatched(other);
  offset = 0;
  EXPECT_FALSE(HealthTracker::DecodeFrom(blob, &offset, &mismatched));
}

// ---------------------------------------------------------------------------
// End-to-end: the resilience layer over the fault-injection layer.

class ResilienceQueryTest : public ::testing::Test {
 protected:
  ResilienceQueryTest() {
    Rng data_rng(100);
    ages_ = CensusAges(6000, data_rng);
    clients_ = MakePopulation(ages_.values(), ClientConfig{});
    codec_ = FixedPointCodec::Integer(7);
  }

  FederatedQueryConfig BaseConfig() const {
    FederatedQueryConfig config;
    config.adaptive.bits = 7;
    config.cohort.max_cohort_size = 4000;
    return config;
  }

  FederatedQueryResult Run(const FederatedQueryConfig& config, uint64_t seed,
                           PrivacyMeter* meter = nullptr) const {
    Rng rng(seed);
    return RunFederatedMeanQuery(clients_, codec_, config, meter, rng);
  }

  Dataset ages_;
  std::vector<Client> clients_;
  FixedPointCodec codec_ = FixedPointCodec::Integer(7);
};

TEST_F(ResilienceQueryTest, DisabledResilienceIsByteIdenticalToBaseline) {
  FaultRates rates;
  rates.mid_round_dropout = 0.2;
  rates.corrupt_message = 0.1;
  const FaultPlan plan(31, rates);
  FederatedQueryConfig config = BaseConfig();
  config.fault_plan = &plan;
  const FederatedQueryResult baseline = Run(config, 501);
  // A default-constructed ResilienceConfig is the explicit "off" switch.
  config.resilience = ResilienceConfig{};
  ASSERT_FALSE(config.resilience.Enabled());
  const FederatedQueryResult again = Run(config, 501);
  EXPECT_EQ(again.estimate, baseline.estimate);
  EXPECT_EQ(again.faults, baseline.faults);
  EXPECT_EQ(again.retry, baseline.retry);
  EXPECT_EQ(again.retry, RetryStats{});
}

TEST_F(ResilienceQueryTest, RetransmissionsRecoverWireLossWithoutExtraCharges) {
  // Corrupt-only plan: every contacted client computes (and is metered for)
  // its report exactly once; only the wire leg is lossy. Retransmissions
  // must recover reports without a single additional meter charge.
  FaultRates rates;
  rates.corrupt_message = 0.2;
  rates.truncate_message = 0.1;
  const FaultPlan plan(83, rates);

  MeterPolicy generous;
  generous.max_bits_per_value = 2;
  generous.max_bits_per_client = 4;

  FederatedQueryConfig config = BaseConfig();
  config.fault_plan = &plan;
  PrivacyMeter baseline_meter(generous);
  const FederatedQueryResult baseline = Run(config, 613, &baseline_meter);

  config.resilience.retry = EnabledRetryPolicy(3);
  PrivacyMeter resilient_meter(generous);
  const FederatedQueryResult resilient = Run(config, 613, &resilient_meter);

  // Wire-leg faults are recovered by retransmission, never by re-request.
  EXPECT_GT(resilient.retry.retransmits_requested, 0);
  EXPECT_GT(resilient.retry.retry_reports_recovered, 0);
  EXPECT_EQ(resilient.retry.retries_scheduled, 0);
  EXPECT_GT(resilient.retry.backoff_minutes, 0.0);
  EXPECT_GT(resilient.retry.elapsed_minutes, 0.0);

  // Round 1 runs the identical cohort in both runs (retries consume no RNG),
  // so recovery is directly visible in the response count.
  EXPECT_EQ(resilient.round1.contacted, baseline.round1.contacted);
  EXPECT_GT(resilient.round1.responded, baseline.round1.responded);

  // The privacy-meter contract: exactly one charge per contacted client,
  // retransmissions included. Nothing is denied under the generous policy.
  EXPECT_EQ(resilient_meter.denied_charges(), 0);
  EXPECT_EQ(resilient_meter.total_bits(),
            resilient.round1.contacted + resilient.round2.contacted);
  EXPECT_EQ(baseline_meter.total_bits(),
            baseline.round1.contacted + baseline.round2.contacted);
}

TEST_F(ResilienceQueryTest, RetriesFlipStaticFallbackBackToAdaptiveRound2) {
  // The acceptance scenario: a fault plan heavy enough that the passive
  // policies lose round 1 past max_round1_loss and degrade to the static
  // allocation — until retries recover the probe and round 2 goes adaptive.
  FaultRates rates;
  rates.mid_round_dropout = 0.35;
  rates.corrupt_message = 0.1;
  rates.truncate_message = 0.1;
  const FaultPlan plan(271, rates);

  FederatedQueryConfig config = BaseConfig();
  config.fault_plan = &plan;
  config.fault_policy.max_round1_loss = 0.4;

  const FederatedQueryResult without = Run(config, 907);
  ASSERT_TRUE(without.used_static_fallback);
  ASSERT_EQ(without.faults.static_policy_fallbacks, 1);

  MeterPolicy generous;
  generous.max_bits_per_value = 2;
  generous.max_bits_per_client = 4;
  PrivacyMeter meter(generous);
  config.resilience.retry = EnabledRetryPolicy(3);
  const FederatedQueryResult with = Run(config, 907, &meter);

  EXPECT_FALSE(with.used_static_fallback);
  EXPECT_EQ(with.faults.static_policy_fallbacks, 0);
  // Both recovery modes fired: dropouts re-requested, wire loss re-sent.
  EXPECT_GT(with.retry.retries_scheduled, 0);
  EXPECT_GT(with.retry.retransmits_requested, 0);
  EXPECT_GT(with.retry.retry_reports_recovered, 0);
  // A dropped first attempt never disclosed anything, so charges stay
  // bracketed by accepted reports below and contacts above.
  EXPECT_EQ(meter.denied_charges(), 0);
  EXPECT_GE(meter.total_bits(), with.round1.responded + with.round2.responded);
  EXPECT_LE(meter.total_bits(), with.round1.contacted + with.round2.contacted);
}

TEST_F(ResilienceQueryTest, ReactiveHedgesCoverPredictedLateReports) {
  // Stragglers against a finite deadline are predicted late the moment
  // their delay is known; with hedging on, a duplicate assignment goes to a
  // fresh pool client, and dedup keeps exactly one report per work item.
  FaultRates rates;
  rates.straggler = 0.3;
  const FaultPlan plan(47, rates);

  FederatedQueryConfig config = BaseConfig();
  config.fault_plan = &plan;
  config.fault_policy.report_deadline_minutes = 30.0;
  config.resilience.hedge.enabled = true;

  MeterPolicy generous;
  generous.max_bits_per_value = 1;
  generous.max_bits_per_client = 4;
  PrivacyMeter meter(generous);
  const FederatedQueryResult result = Run(config, 321, &meter);

  ASSERT_GT(result.faults.late_reports_rejected, 0);
  EXPECT_GT(result.retry.hedges_issued, 0);
  EXPECT_GT(result.retry.hedge_reports, 0);
  // Conservation: every issued hedge either reported, failed, or was
  // cancelled.
  EXPECT_EQ(result.retry.hedges_issued,
            result.retry.hedge_reports + result.retry.hedge_failures +
                result.retry.hedges_cancelled);
  // With an infinite budget every hedge is reactive (straggler-triggered),
  // so every winning hedge displaced exactly one late original.
  EXPECT_EQ(result.retry.hedges_cancelled, 0);
  EXPECT_EQ(result.retry.hedge_dedup_drops, result.retry.hedge_reports);
  EXPECT_EQ(result.retry.RecoveredTotal(), result.retry.hedge_reports);
  // Each contact — primary or hedge — is metered exactly once.
  EXPECT_EQ(meter.denied_charges(), 0);
  EXPECT_EQ(meter.total_bits(),
            result.round1.contacted + result.round2.contacted);
}

TEST(ResilienceRoundTest, CancelledHedgesAreNeverContactedOrMetered) {
  // Pre-emptive hedging under budget pressure, fault-free: every primary
  // arrives, so every planned hedge is cancelled before the duplicate
  // client computes — no contact, no report, no meter charge.
  Rng data_rng(100);
  const Dataset ages = CensusAges(60, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);

  std::vector<int64_t> cohort;
  std::vector<int64_t> pool;
  for (int64_t i = 0; i < 40; ++i) cohort.push_back(i);
  for (int64_t i = 40; i < 60; ++i) pool.push_back(i);

  RoundConfig config;
  config.probabilities = GeometricProbabilities(7, 0.5);
  config.epsilon = 4.0;
  config.round_id = 1;
  config.backfill_pool = pool;
  config.resilience.hedge.enabled = true;
  config.resilience.hedge.trigger_budget_fraction = 0.5;
  // One eligible check-in per simulated minute: each contact costs exactly
  // one minute of clock, so the trigger (10 of 20 minutes) crosses after
  // slot 10 and the remaining 30 slots are hedged pre-emptively.
  config.resilience.latency.checkins_per_minute = 1.0;
  config.resilience.budget.minutes = 20.0;

  MeterPolicy policy;
  policy.max_bits_per_value = 1;
  PrivacyMeter meter(policy);
  Rng rng(17);
  const AggregationServer server(codec);
  const RoundOutcome outcome =
      server.RunRound(clients, cohort, config, &meter, rng);

  EXPECT_EQ(outcome.retry.hedges_issued, 30);
  EXPECT_EQ(outcome.retry.hedges_issued, outcome.retry.hedges_cancelled);
  EXPECT_EQ(outcome.retry.hedge_reports, 0);
  EXPECT_EQ(outcome.retry.hedge_failures, 0);
  // The pool was never touched: contacts and charges both equal the cohort.
  EXPECT_EQ(outcome.contacted, 40);
  EXPECT_EQ(outcome.responded, 40);
  EXPECT_EQ(meter.total_bits(), 40);
  EXPECT_EQ(meter.denied_charges(), 0);
  EXPECT_GT(outcome.retry.elapsed_minutes, 0.0);
}

// ---------------------------------------------------------------------------
// Campaign integration: breaker quarantine spans rounds, queries, and ticks.

TEST(ResilienceCampaignTest, BreakerQuarantineSpansQueriesOfACampaign) {
  Rng data_rng(5);
  const Dataset ages = CensusAges(300, data_rng);
  const std::vector<Client> population =
      MakePopulation(ages.values(), ClientConfig{});
  const std::vector<FixedPointCodec> codecs = {FixedPointCodec::Integer(7)};
  const std::vector<const std::vector<Client>*> populations = {&population};

  // Deterministic repeat offenders: fault decisions are keyed on
  // (round, client), and every tick reuses round ids 1 and 2, so the same
  // clients fail tick after tick and their failure streaks accumulate.
  FaultRates rates;
  rates.mid_round_dropout = 0.4;
  const FaultPlan plan(149, rates);

  std::vector<CampaignQuery> queries;
  CampaignQuery query;
  query.name = "ages";
  query.value_id = 0;
  query.query.adaptive.bits = 7;
  query.query.fault_plan = &plan;
  queries.push_back(query);

  ResilienceConfig resilience;
  resilience.breaker.consecutive_failures_to_open = 2;
  resilience.breaker.cooldown_rounds = 4;
  MeasurementCampaign campaign(std::move(queries), nullptr, resilience);
  ASSERT_NE(campaign.health(), nullptr);

  Rng rng(2025);
  for (int64_t tick = 0; tick < 5; ++tick) {
    campaign.RunTick(tick, populations, codecs, rng);
  }

  const RetryStats& stats = campaign.retry_stats();
  EXPECT_GT(stats.breaker_opens, 0);
  // The quarantine bit: opened breakers withheld assignments in later
  // rounds, and cooldown expiry let probes through.
  EXPECT_GT(stats.breaker_skips, 0);
  EXPECT_GT(stats.breaker_probes, 0);
  EXPECT_GT(campaign.health()->tracked_clients(), 0);
  EXPECT_EQ(campaign.health()->opens(), stats.breaker_opens);
}

// ---------------------------------------------------------------------------
// Crash matrix: resilient campaign killed at every journal-record boundary.

class ResilienceRecoveryTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kSeed = 3033;
  static constexpr int64_t kTicks = 2;

  ResilienceRecoveryTest() {
    Rng data_rng(7);
    const Dataset ages = CensusAges(60, data_rng);
    population_ = MakePopulation(ages.values(), ClientConfig{});
    codecs_ = {FixedPointCodec::Integer(7), FixedPointCodec::Integer(7)};
    populations_ = {&population_, &population_};

    FaultRates rates;
    rates.mid_round_dropout = 0.1;
    rates.corrupt_message = 0.05;
    rates.truncate_message = 0.05;
    rates.straggler = 0.1;
    plan_.emplace(97, rates);

    policy_.max_bits_per_value = 1;
    policy_.max_bits_per_client = 2;
    policy_.max_epsilon_per_client = 100.0;

    // Every mechanism armed: retries, hedging under a finite per-tick
    // budget tight enough to cross the trigger, and the breaker.
    resilience_.seed = 41;
    resilience_.retry = EnabledRetryPolicy(2);
    resilience_.hedge.enabled = true;
    resilience_.breaker.consecutive_failures_to_open = 2;
    resilience_.breaker.cooldown_rounds = 2;
    resilience_.budget.minutes = 260.0;
  }

  ~ResilienceRecoveryTest() override {
    for (const std::string& dir : dirs_) std::filesystem::remove_all(dir);
  }

  std::vector<CampaignQuery> MakeQueries() const {
    std::vector<CampaignQuery> queries;
    for (int i = 0; i < 2; ++i) {
      CampaignQuery query;
      query.name = std::string(i == 0 ? "a" : "b");
      query.value_id = i;
      query.cadence_ticks = 1;
      query.query.adaptive.bits = 7;
      // Leave leftover clients so hedges and backfill have a pool to draw
      // replacement devices from.
      query.query.cohort.max_cohort_size = 40;
      query.query.fault_plan = &*plan_;
      query.query.fault_policy.report_deadline_minutes = 30.0;
      queries.push_back(query);
    }
    return queries;
  }

  std::string FreshDir(const std::string& tag) {
    const std::string dir = ::testing::TempDir() + "/resilience_" + tag;
    std::filesystem::remove_all(dir);
    dirs_.push_back(dir);
    return dir;
  }

  DurableCampaignOptions Options(const std::string& dir) const {
    DurableCampaignOptions options;
    options.state_dir = dir;
    options.seed = kSeed;
    options.fsync = false;
    return options;
  }

  // The fingerprint every crash point must reproduce. Campaign-level
  // RetryStats only pool the queries a process ran *live* (restored queries
  // serve journaled summaries), so the retry schedule is compared where it
  // is durable: the journal itself, byte for byte.
  struct Fingerprint {
    std::vector<CampaignTickResult> history;
    std::vector<uint8_t> meter;
    std::vector<JournalRecord> journal;
  };

  Fingerprint RunToCompletion(DurableCampaignRunner* runner,
                              const std::string& dir) {
    for (int64_t tick = runner->next_tick(); tick < kTicks; ++tick) {
      runner->RunTick(tick, codecs_);
    }
    Fingerprint fingerprint;
    fingerprint.history = runner->campaign().history();
    runner->meter().EncodeTo(&fingerprint.meter);
    JournalReadResult journal;
    std::string error;
    EXPECT_TRUE(ReadJournal(dir + "/journal.wal", 0, &journal, &error))
        << error;
    EXPECT_FALSE(journal.torn_tail);
    fingerprint.journal = std::move(journal.records);
    return fingerprint;
  }

  static void ExpectSameJournal(const std::vector<JournalRecord>& actual,
                                const std::vector<JournalRecord>& expected,
                                size_t k) {
    ASSERT_EQ(actual.size(), expected.size()) << "k=" << k;
    for (size_t i = 0; i < actual.size(); ++i) {
      ASSERT_EQ(actual[i].type, expected[i].type) << "k=" << k << " i=" << i;
      ASSERT_EQ(actual[i].seq, expected[i].seq) << "k=" << k << " i=" << i;
      ASSERT_EQ(actual[i].payload, expected[i].payload)
          << "k=" << k << " i=" << i;
    }
  }

  std::vector<Client> population_;
  std::vector<const std::vector<Client>*> populations_;
  std::vector<FixedPointCodec> codecs_;
  std::optional<FaultPlan> plan_;
  MeterPolicy policy_;
  ResilienceConfig resilience_;
  std::vector<std::string> dirs_;
};

TEST_F(ResilienceRecoveryTest, ResilientDurableRunMatchesPlainCampaign) {
  const std::string dir = FreshDir("obs");
  DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir),
                               resilience_);
  std::string error;
  ASSERT_TRUE(runner.Open(populations_, &error)) << error;
  const Fingerprint durable = RunToCompletion(&runner, dir);

  PrivacyMeter meter(policy_);
  MeasurementCampaign plain(MakeQueries(), &meter, resilience_);
  Rng rng(kSeed);
  for (int64_t tick = 0; tick < kTicks; ++tick) {
    plain.RunTick(tick, populations_, codecs_, rng);
  }
  EXPECT_EQ(durable.history, plain.history());
  std::vector<uint8_t> plain_meter;
  meter.EncodeTo(&plain_meter);
  EXPECT_EQ(durable.meter, plain_meter);
  // The journaling observer does not perturb the recovery schedule either.
  EXPECT_EQ(runner.campaign().retry_stats(), plain.retry_stats());
}

TEST_F(ResilienceRecoveryTest, KillAtEveryJournalRecordReplaysRetrySchedule) {
  const std::string base_dir = FreshDir("baseline");
  DurableCampaignRunner baseline(MakeQueries(), policy_, Options(base_dir),
                                 resilience_);
  std::string error;
  ASSERT_TRUE(baseline.Open(populations_, &error)) << error;
  const Fingerprint expected = RunToCompletion(&baseline, base_dir);

  // The run must actually exercise the resilience layer for the matrix to
  // mean anything: journaled round outcomes that carry retries and hedges,
  // and live recoveries.
  RetryStats journaled;
  for (const JournalRecord& record : expected.journal) {
    if (record.type != JournalRecordType::kRoundClosed) continue;
    RoundClosedRecord closed;
    ASSERT_TRUE(DecodeRoundClosedRecord(record.payload, &closed));
    journaled.MergeFrom(closed.outcome.retry);
  }
  ASSERT_GT(journaled.retries_scheduled + journaled.retransmits_requested, 0);
  ASSERT_GT(journaled.hedges_issued, 0);
  ASSERT_GT(baseline.campaign().retry_stats().RecoveredTotal(), 0);

  const size_t total = expected.journal.size();
  ASSERT_GT(total, 100u);
  for (size_t k = 0; k <= total; ++k) {
    const std::string dir = FreshDir("kill_" + std::to_string(k));
    std::filesystem::create_directories(dir);
    std::vector<uint8_t> prefix_bytes;
    for (size_t i = 0; i < k; ++i) {
      AppendJournalFrame(expected.journal[i].type, expected.journal[i].seq,
                         expected.journal[i].payload, &prefix_bytes);
    }
    std::FILE* file = std::fopen((dir + "/journal.wal").c_str(), "wb");
    ASSERT_NE(file, nullptr);
    if (!prefix_bytes.empty()) {
      // k == 0 writes an empty journal; empty data() may be null.
      ASSERT_EQ(std::fwrite(prefix_bytes.data(), 1, prefix_bytes.size(), file),
                prefix_bytes.size());
    }
    std::fclose(file);

    DurableCampaignRunner runner(MakeQueries(), policy_, Options(dir),
                                 resilience_);
    ASSERT_TRUE(runner.Open(populations_, &error)) << "k=" << k << ": " << error;
    EXPECT_EQ(runner.recovery_info().recovered, k > 0) << k;
    const Fingerprint actual = RunToCompletion(&runner, dir);
    ASSERT_EQ(actual.history, expected.history) << "diverged at k=" << k;
    ASSERT_EQ(actual.meter, expected.meter)
        << "meter ledger diverged at k=" << k;
    // The recovered journal — charges and round outcomes with their retry
    // and hedge counters — is byte-identical to the uninterrupted run's.
    ExpectSameJournal(actual.journal, expected.journal, k);
  }
}

}  // namespace
}  // namespace bitpush
