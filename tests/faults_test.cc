// Fault-matrix suite for the fault-injection layer (federated/faults.h).
//
// Each single-fault scenario runs the full two-round query end to end and
// asserts two things: the exact count identities the deterministic FaultPlan
// guarantees (injections and reactions are counted, not sampled, so these
// are equalities), and that the estimate stays unbiased — sample mean over
// repetitions within four standard errors of the census truth. Seeds are
// fixed per docs/TESTING.md; tolerances come from the observed spread, not
// golden values.

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "data/census.h"
#include "federated/faults.h"
#include "federated/fleet.h"
#include "federated/round.h"
#include "rng/rng.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

FaultRates SingleRate(FaultType type, double rate) {
  FaultRates rates;
  switch (type) {
    case FaultType::kMidRoundDropout:
      rates.mid_round_dropout = rate;
      break;
    case FaultType::kStraggler:
      rates.straggler = rate;
      break;
    case FaultType::kCorruptMessage:
      rates.corrupt_message = rate;
      break;
    case FaultType::kTruncateMessage:
      rates.truncate_message = rate;
      break;
    case FaultType::kRoundBoundaryCrash:
      rates.round_boundary_crash = rate;
      break;
    case FaultType::kNone:
      break;
  }
  return rates;
}

class FaultMatrixTest : public ::testing::Test {
 protected:
  FaultMatrixTest() {
    Rng data_rng(100);
    ages_ = CensusAges(6000, data_rng);
    clients_ = MakePopulation(ages_.values(), ClientConfig{});
    codec_ = FixedPointCodec::Integer(7);
  }

  // bits = 7, cohort capped at 4000 so 2000 eligible clients remain as the
  // backfill pools.
  FederatedQueryConfig BaseConfig() const {
    FederatedQueryConfig config;
    config.adaptive.bits = 7;
    config.cohort.max_cohort_size = 4000;
    return config;
  }

  FederatedQueryResult RunWithPlan(const FaultPlan& plan,
                                   const FaultPolicy& policy,
                                   uint64_t seed,
                                   PrivacyMeter* meter = nullptr) const {
    FederatedQueryConfig config = BaseConfig();
    config.fault_plan = &plan;
    config.fault_policy = policy;
    Rng rng(seed);
    return RunFederatedMeanQuery(clients_, codec_, config, meter, rng);
  }

  Dataset ages_;
  std::vector<Client> clients_;
  FixedPointCodec codec_ = FixedPointCodec::Integer(7);
};

// ---------------------------------------------------------------------------
// FaultPlan: the deterministic schedule itself.

TEST(FaultPlanTest, DisabledPlanNeverInjects) {
  const FaultPlan plan;
  EXPECT_FALSE(plan.enabled());
  for (int64_t client = 0; client < 1000; ++client) {
    EXPECT_EQ(plan.Decide(1, client), FaultType::kNone);
    EXPECT_EQ(plan.Decide(2, client), FaultType::kNone);
  }
}

TEST(FaultPlanTest, DecisionsAreDeterministicAndSeedSensitive) {
  FaultRates rates;
  rates.mid_round_dropout = 0.1;
  rates.straggler = 0.1;
  rates.corrupt_message = 0.1;
  const FaultPlan a(7, rates);
  const FaultPlan b(7, rates);
  const FaultPlan c(8, rates);
  int differs = 0;
  for (int64_t round = 1; round <= 2; ++round) {
    for (int64_t client = 0; client < 2000; ++client) {
      EXPECT_EQ(a.Decide(round, client), b.Decide(round, client));
      differs += a.Decide(round, client) != c.Decide(round, client) ? 1 : 0;
    }
  }
  EXPECT_GT(differs, 0);
}

TEST(FaultPlanTest, InjectionRateTracksConfiguredRate) {
  const FaultPlan plan(21, SingleRate(FaultType::kMidRoundDropout, 0.2));
  int64_t hits = 0;
  const int64_t n = 20000;
  for (int64_t client = 0; client < n; ++client) {
    hits += plan.Decide(1, client) == FaultType::kMidRoundDropout ? 1 : 0;
  }
  // Binomial(20000, 0.2): 4 standard deviations is ~226.
  EXPECT_NEAR(static_cast<double>(hits), 0.2 * static_cast<double>(n), 230.0);
}

TEST(FaultPlanTest, CrashOnlyStrikesRoundOne) {
  const FaultPlan plan(22, SingleRate(FaultType::kRoundBoundaryCrash, 0.3));
  int64_t round1_crashes = 0;
  for (int64_t client = 0; client < 5000; ++client) {
    round1_crashes +=
        plan.Decide(1, client) == FaultType::kRoundBoundaryCrash ? 1 : 0;
    // In any later round the crash band maps to kNone.
    EXPECT_EQ(plan.Decide(2, client), FaultType::kNone);
    EXPECT_EQ(plan.Decide(3, client), FaultType::kNone);
  }
  EXPECT_GT(round1_crashes, 0);
}

TEST(FaultPlanTest, StragglerDelayWithinWindow) {
  const FaultPlan plan(23, SingleRate(FaultType::kStraggler, 0.5));
  for (int64_t client = 0; client < 1000; ++client) {
    const double delay = plan.StragglerDelayMinutes(1, client);
    EXPECT_GE(delay, 1.0);
    EXPECT_LE(delay, 60.0);
  }
}

TEST(FaultPlanTest, CorruptBufferAlwaysChangesBytes) {
  const FaultPlan plan(24, SingleRate(FaultType::kCorruptMessage, 0.5));
  for (int64_t client = 0; client < 500; ++client) {
    std::vector<uint8_t> original(10, 0xAB);
    std::vector<uint8_t> corrupted = original;
    plan.CorruptBuffer(1, client, &corrupted);
    EXPECT_EQ(corrupted.size(), original.size());
    EXPECT_NE(corrupted, original);
    // Deterministic: the same (round, client) garbles identically.
    std::vector<uint8_t> again(10, 0xAB);
    plan.CorruptBuffer(1, client, &again);
    EXPECT_EQ(corrupted, again);
  }
}

TEST(FaultPlanTest, TruncatedSizeIsAlwaysShort) {
  const FaultPlan plan(25, SingleRate(FaultType::kTruncateMessage, 0.5));
  for (int64_t client = 0; client < 1000; ++client) {
    EXPECT_LT(plan.TruncatedSize(1, client, 10), 10u);
  }
}

TEST(FaultPlanDeathTest, RejectsInvalidRates) {
  FaultRates negative;
  negative.straggler = -0.1;
  EXPECT_DEATH(FaultPlan(1, negative), "BITPUSH_CHECK failed");
  FaultRates oversum;
  oversum.mid_round_dropout = 0.6;
  oversum.corrupt_message = 0.6;
  EXPECT_DEATH(FaultPlan(1, oversum), "BITPUSH_CHECK failed");
}

// ---------------------------------------------------------------------------
// The wire leg of a faulted report.

TEST(FaultDeliveryTest, TruncatedFramesAreAlwaysRejected) {
  const FaultPlan plan(31, SingleRate(FaultType::kTruncateMessage, 1.0));
  FaultStats stats;
  for (int64_t client = 0; client < 1000; ++client) {
    const BitReport report{client, 3, 1};
    EXPECT_FALSE(DeliverFaultedReport(plan, 1, client,
                                      FaultType::kTruncateMessage, report,
                                      &stats)
                     .has_value());
  }
  EXPECT_EQ(stats.injected_truncations, 1000);
  EXPECT_EQ(stats.truncated_reports_rejected, 1000);
  EXPECT_EQ(stats.corrupt_reports_rejected, 0);
}

TEST(FaultDeliveryTest, CorruptionSplitsIntoRejectedAndAccepted) {
  const FaultPlan plan(32, SingleRate(FaultType::kCorruptMessage, 1.0));
  FaultStats stats;
  for (int64_t client = 0; client < 2000; ++client) {
    const BitReport report{client, 3, 1};
    const std::optional<BitReport> delivered = DeliverFaultedReport(
        plan, 1, client, FaultType::kCorruptMessage, report, &stats);
    if (delivered.has_value()) {
      // Whatever decoded is still protocol-shaped.
      EXPECT_TRUE(delivered->bit == 0 || delivered->bit == 1);
    }
  }
  EXPECT_EQ(stats.injected_corruptions, 2000);
  EXPECT_EQ(stats.corrupt_reports_rejected + stats.corrupt_reports_accepted,
            2000);
  // Most flips land outside the bit byte, so most frames still decode.
  EXPECT_GT(stats.corrupt_reports_accepted, 0);
  EXPECT_GT(stats.corrupt_reports_rejected, 0);
}

// ---------------------------------------------------------------------------
// The fault matrix: each single-fault scenario end to end, exact counts.

TEST_F(FaultMatrixTest, MidRoundDropoutCountsExactly) {
  const FaultPlan plan(41, SingleRate(FaultType::kMidRoundDropout, 0.1));
  const FederatedQueryResult result = RunWithPlan(plan, FaultPolicy{}, 201);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.faults.injected_dropouts, 0);
  for (const RoundOutcome* round : {&result.round1, &result.round2}) {
    EXPECT_EQ(round->responded,
              round->contacted - round->faults.injected_dropouts);
  }
  EXPECT_EQ(result.faults.injected_dropouts,
            result.round1.faults.injected_dropouts +
                result.round2.faults.injected_dropouts);
  EXPECT_EQ(result.faults.InjectedTotal(), result.faults.injected_dropouts);
}

TEST_F(FaultMatrixTest, StragglersRejectedUnderFiniteDeadline) {
  const FaultPlan plan(42, SingleRate(FaultType::kStraggler, 0.1));
  FaultPolicy policy;
  policy.report_deadline_minutes = 30.0;
  const FederatedQueryResult result = RunWithPlan(plan, policy, 202);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.faults.injected_stragglers, 0);
  EXPECT_EQ(result.faults.late_reports_rejected,
            result.faults.injected_stragglers);
  EXPECT_EQ(result.faults.late_reports_accepted, 0);
  for (const RoundOutcome* round : {&result.round1, &result.round2}) {
    EXPECT_EQ(round->responded,
              round->contacted - round->faults.late_reports_rejected);
  }
}

TEST_F(FaultMatrixTest, StragglersAcceptedWithoutDeadline) {
  const FaultPlan plan(42, SingleRate(FaultType::kStraggler, 0.1));
  const FederatedQueryResult result = RunWithPlan(plan, FaultPolicy{}, 202);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.faults.injected_stragglers, 0);
  EXPECT_EQ(result.faults.late_reports_accepted,
            result.faults.injected_stragglers);
  EXPECT_EQ(result.faults.late_reports_rejected, 0);
  // No deadline means nothing is lost at all.
  EXPECT_EQ(result.round1.responded, result.round1.contacted);
  EXPECT_EQ(result.round2.responded, result.round2.contacted);
}

TEST_F(FaultMatrixTest, CorruptMessagesCountExactly) {
  const FaultPlan plan(43, SingleRate(FaultType::kCorruptMessage, 0.1));
  const FederatedQueryResult result = RunWithPlan(plan, FaultPolicy{}, 203);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.faults.injected_corruptions, 0);
  EXPECT_EQ(result.faults.corrupt_reports_rejected +
                result.faults.corrupt_reports_accepted,
            result.faults.injected_corruptions);
  for (const RoundOutcome* round : {&result.round1, &result.round2}) {
    EXPECT_EQ(round->responded,
              round->contacted - round->faults.corrupt_reports_rejected);
  }
}

TEST_F(FaultMatrixTest, TruncatedMessagesCountExactly) {
  const FaultPlan plan(44, SingleRate(FaultType::kTruncateMessage, 0.1));
  const FederatedQueryResult result = RunWithPlan(plan, FaultPolicy{}, 204);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.faults.injected_truncations, 0);
  // A truncated frame is shorter than the fixed wire size: always rejected.
  EXPECT_EQ(result.faults.truncated_reports_rejected,
            result.faults.injected_truncations);
  for (const RoundOutcome* round : {&result.round1, &result.round2}) {
    EXPECT_EQ(round->responded,
              round->contacted - round->faults.truncated_reports_rejected);
  }
}

TEST_F(FaultMatrixTest, CrashedClientsAreDeduplicatedOnRecheckin) {
  const FaultPlan plan(45, SingleRate(FaultType::kRoundBoundaryCrash, 0.1));
  PrivacyMeter meter{MeterPolicy{}};
  const FederatedQueryResult result =
      RunWithPlan(plan, FaultPolicy{}, 205, &meter);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.round1.faults.injected_crashes, 0);
  // Crashes only strike between rounds 1 and 2.
  EXPECT_EQ(result.round2.faults.injected_crashes, 0);
  EXPECT_EQ(result.round1.responded,
            result.round1.contacted - result.round1.faults.injected_crashes);
  // Every crashed client re-checks-in for round 2 and is turned away.
  EXPECT_EQ(result.round2.faults.recheckins_rejected,
            result.round1.faults.injected_crashes);
  // The dedup is what keeps the meter honest: one bit per client, and a
  // crashed client (which disclosed nothing) is never double-assigned.
  EXPECT_EQ(meter.total_bits(),
            result.round1.responded + result.round2.responded);
  EXPECT_EQ(meter.denied_charges(), 0);
  for (int64_t id = 0; id < static_cast<int64_t>(clients_.size()); ++id) {
    EXPECT_LE(meter.ClientBits(id), 1);
  }
}

TEST_F(FaultMatrixTest, EveryScenarioStaysUnbiased) {
  // For each fault type at 10%, the mean over repetitions (fresh fault-plan
  // seed each repetition) must sit within four standard errors of the
  // census truth: faults below the policy thresholds lose reports, never
  // bias what remains.
  const double truth = ages_.truth().mean;
  const FaultType scenarios[] = {
      FaultType::kMidRoundDropout, FaultType::kStraggler,
      FaultType::kCorruptMessage, FaultType::kTruncateMessage,
      FaultType::kRoundBoundaryCrash};
  uint64_t base_seed = 300;
  for (const FaultType type : scenarios) {
    const int64_t reps = 20;
    const std::vector<double> estimates = CollectRepetitions(
        reps, base_seed++, [&](Rng& rng) {
          const FaultPlan plan(rng.NextUint64(), SingleRate(type, 0.1));
          FederatedQueryConfig config = BaseConfig();
          config.fault_plan = &plan;
          config.fault_policy.report_deadline_minutes = 30.0;
          const FederatedQueryResult result =
              RunFederatedMeanQuery(clients_, codec_, config, nullptr, rng);
          EXPECT_FALSE(result.aborted);
          return result.estimate;
        });
    double mean = 0.0;
    for (const double e : estimates) mean += e;
    mean /= static_cast<double>(reps);
    double variance = 0.0;
    for (const double e : estimates) variance += (e - mean) * (e - mean);
    variance /= static_cast<double>(reps - 1);
    const double stderr_mean =
        std::sqrt(variance / static_cast<double>(reps));
    EXPECT_NEAR(mean, truth, 4.0 * stderr_mean + 0.05)
        << "fault type " << static_cast<int>(type)
        << " biased the estimate (se=" << stderr_mean << ")";
  }
}

// ---------------------------------------------------------------------------
// Backfill: bounded retry from the replacement pool, meter still honest.

TEST_F(FaultMatrixTest, BackfillRecoversLostReportsAndChargesMeterOnce) {
  const FaultPlan plan(51, SingleRate(FaultType::kMidRoundDropout, 0.25));
  const FederatedQueryResult without = RunWithPlan(plan, FaultPolicy{}, 206);
  FaultPolicy policy;
  policy.max_backfill_rounds = 3;
  PrivacyMeter meter{MeterPolicy{}};
  const FederatedQueryResult with = RunWithPlan(plan, policy, 206, &meter);
  ASSERT_FALSE(with.aborted);

  EXPECT_GT(with.faults.backfill_requests, 0);
  EXPECT_GT(with.faults.backfill_reports, 0);
  EXPECT_GE(with.faults.backfill_rounds_used, 1);
  EXPECT_LE(with.faults.backfill_rounds_used, 2 * 3);  // two rounds, 3 max
  // Replacements go through the same fault pipeline, so the loss identity
  // still holds with contacted now including the backfill draws.
  for (const RoundOutcome* round : {&with.round1, &with.round2}) {
    EXPECT_EQ(round->responded,
              round->contacted - round->faults.injected_dropouts);
    EXPECT_EQ(round->contacted, static_cast<int64_t>(
                                    round->assigned_clients.size()));
  }
  // Backfill strictly improves the response count over the same plan.
  EXPECT_GT(with.round1.responded + with.round2.responded,
            without.round1.responded + without.round2.responded);
  // Privacy: every responder (replacement or not) is charged exactly once.
  EXPECT_EQ(meter.total_bits(), with.round1.responded + with.round2.responded);
  EXPECT_EQ(meter.denied_charges(), 0);
  for (int64_t id = 0; id < static_cast<int64_t>(clients_.size()); ++id) {
    EXPECT_LE(meter.ClientBits(id), 1);
  }
}

// ---------------------------------------------------------------------------
// Graceful degradation: heavy round-1 loss falls back to the static policy.

TEST_F(FaultMatrixTest, HeavyRound1LossFallsBackToStaticPolicy) {
  const FaultPlan plan(61, SingleRate(FaultType::kMidRoundDropout, 0.7));
  FaultPolicy policy;
  policy.max_round1_loss = 0.5;
  const FederatedQueryResult result = RunWithPlan(plan, policy, 207);
  ASSERT_FALSE(result.aborted);
  EXPECT_GT(result.round1.dropout_rate, 0.5);
  EXPECT_TRUE(result.used_static_fallback);
  EXPECT_EQ(result.faults.static_policy_fallbacks, 1);
  // The documented fallback is the pessimistic-optimal Eq. (7) allocation.
  EXPECT_EQ(result.round2_probabilities, GeometricProbabilities(7, 1.0));
  // Degraded, not broken: the static policy is still unbiased, so the
  // estimate survives (wider tolerance for the thinner cohort).
  EXPECT_NEAR(result.estimate, ages_.truth().mean,
              0.2 * ages_.truth().mean);
}

TEST_F(FaultMatrixTest, ModerateLossKeepsLearnedRebalance) {
  const FaultPlan plan(62, SingleRate(FaultType::kMidRoundDropout, 0.2));
  FaultPolicy policy;
  policy.max_round1_loss = 0.5;
  const FederatedQueryResult result = RunWithPlan(plan, policy, 208);
  ASSERT_FALSE(result.aborted);
  EXPECT_FALSE(result.used_static_fallback);
  EXPECT_EQ(result.faults.static_policy_fallbacks, 0);
}

// ---------------------------------------------------------------------------
// Fleet: windowed collection loses readings through the same fault layer.

TEST(FaultFleetTest, WindowLossMatchesInjectedCounts) {
  FleetConfig config;
  config.devices = 3000;
  config.availability_base = 1.0;  // every device reachable: exact counts
  config.availability_amplitude = 0.0;
  config.report_faults.mid_round_dropout = 0.1;
  config.report_faults.straggler = 0.05;
  config.report_faults.corrupt_message = 0.05;
  config.report_faults.truncate_message = 0.05;
  config.model_latency = true;
  FleetSimulator fleet(config, 77);
  const std::vector<double> readings = fleet.CollectWindow(0);
  const FaultStats& stats = fleet.fault_stats();
  EXPECT_GT(stats.injected_dropouts, 0);
  EXPECT_GT(stats.injected_stragglers, 0);
  // Without a deadline stragglers are kept; dropouts and garbled frames
  // are lost.
  EXPECT_EQ(stats.late_reports_accepted, stats.injected_stragglers);
  EXPECT_EQ(stats.corrupt_reports_rejected, stats.injected_corruptions);
  EXPECT_EQ(stats.truncated_reports_rejected, stats.injected_truncations);
  EXPECT_EQ(static_cast<int64_t>(readings.size()),
            config.devices - stats.injected_dropouts -
                stats.injected_corruptions - stats.injected_truncations);
  EXPECT_EQ(fleet.windows_collected(), 1);
  EXPECT_GT(fleet.last_window_minutes(), 0.0);
}

TEST(FaultFleetTest, FiniteDeadlineDropsStragglers) {
  FleetConfig config;
  config.devices = 3000;
  config.availability_base = 1.0;
  config.availability_amplitude = 0.0;
  config.report_faults.straggler = 0.1;
  config.report_deadline_minutes = 15.0;
  FleetSimulator fleet(config, 78);
  const std::vector<double> readings = fleet.CollectWindow(0);
  const FaultStats& stats = fleet.fault_stats();
  EXPECT_GT(stats.injected_stragglers, 0);
  EXPECT_EQ(stats.late_reports_rejected, stats.injected_stragglers);
  EXPECT_EQ(stats.late_reports_accepted, 0);
  EXPECT_EQ(static_cast<int64_t>(readings.size()),
            config.devices - stats.late_reports_rejected);
}

TEST(FaultFleetTest, FaultedWindowsAreDeterministic) {
  FleetConfig config;
  config.devices = 1000;
  config.report_faults.mid_round_dropout = 0.15;
  config.report_faults.truncate_message = 0.05;
  config.model_latency = true;
  FleetSimulator a(config, 79);
  FleetSimulator b(config, 79);
  for (int window = 0; window < 3; ++window) {
    EXPECT_EQ(a.CollectWindow(0), b.CollectWindow(0));
  }
  EXPECT_EQ(a.fault_stats(), b.fault_stats());
  EXPECT_DOUBLE_EQ(a.last_window_minutes(), b.last_window_minutes());
}

}  // namespace
}  // namespace bitpush
