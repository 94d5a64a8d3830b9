#include <vector>

#include <gtest/gtest.h>

#include "data/dataset.h"
#include "federated/telemetry.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

TEST(TelemetryTest, FamilyNames) {
  EXPECT_EQ(MetricFamilyName(MetricFamily::kLatencyMs), "latency_ms");
  EXPECT_EQ(MetricFamilyName(MetricFamily::kAppVersion), "app_version");
}

TEST(TelemetryTest, LatencyIsPositiveAndHeavyTailed) {
  Rng rng(1);
  const GroundTruth truth =
      ComputeGroundTruth(GenerateMetric(MetricFamily::kLatencyMs, 50000,
                                        rng));
  EXPECT_GT(truth.min, 0.0);
  // Lognormal(4, 0.9): mean ~ e^{4.405} ~ 82; max far above.
  EXPECT_GT(truth.mean, 40.0);
  EXPECT_GT(truth.max, 10.0 * truth.mean);
}

TEST(TelemetryTest, CrashCountIsMostlyBinaryWithRareHugeOutliers) {
  Rng rng(2);
  const std::vector<double> values =
      GenerateMetric(MetricFamily::kCrashCount, 200000, rng);
  int64_t binary = 0;
  double max_seen = 0.0;
  for (const double v : values) {
    if (v == 0.0 || v == 1.0) ++binary;
    if (v > max_seen) max_seen = v;
  }
  EXPECT_GT(binary, 180000);    // > 90% at 0/1
  EXPECT_GT(max_seen, 1000.0);  // "orders of magnitude higher"
}

TEST(TelemetryTest, BatteryDrainIsBounded) {
  Rng rng(3);
  const GroundTruth truth = ComputeGroundTruth(
      GenerateMetric(MetricFamily::kBatteryDrainPct, 20000, rng));
  EXPECT_GE(truth.min, 0.0);
  EXPECT_LE(truth.max, 100.0);
  EXPECT_NEAR(truth.mean, 22.0, 1.0);
}

TEST(TelemetryTest, AppVersionIsConstant) {
  Rng rng(4);
  const GroundTruth truth =
      ComputeGroundTruth(GenerateMetric(MetricFamily::kAppVersion, 1000,
                                        rng));
  EXPECT_DOUBLE_EQ(truth.variance, 0.0);
  EXPECT_DOUBLE_EQ(truth.mean, 42.0);
}

TEST(EstimateHighestUsedBitTest, FindsTopInformativeBit) {
  EXPECT_EQ(EstimateHighestUsedBit({0.5, 0.2, 0.0, 0.0}, 0.05), 1);
  EXPECT_EQ(EstimateHighestUsedBit({0.5, 0.2, 0.04, 0.6}, 0.05), 3);
  EXPECT_EQ(EstimateHighestUsedBit({0.0, 0.0}, 0.05), -1);
}

TEST(EstimateHighestUsedBitTest, ThresholdFiltersNoise) {
  // Noisy small means above the top real bit must not fool the estimate.
  EXPECT_EQ(EstimateHighestUsedBit({0.5, 0.3, 0.02, -0.01, 0.03}, 0.1), 1);
}

TEST(UpperBoundMonitorTest, FirstWindowNeverFlags) {
  UpperBoundMonitor monitor(2);
  EXPECT_FALSE(monitor.ObserveWindow(10));
  EXPECT_EQ(monitor.last_bound(), 10);
}

TEST(UpperBoundMonitorTest, FlagsLargeShifts) {
  UpperBoundMonitor monitor(2);
  monitor.ObserveWindow(10);
  EXPECT_FALSE(monitor.ObserveWindow(11));  // shift 1 < 2
  EXPECT_TRUE(monitor.ObserveWindow(13));   // shift 2 >= 2
  EXPECT_TRUE(monitor.ObserveWindow(8));    // downward shift flags too
  EXPECT_EQ(monitor.flags_raised(), 2);
}

TEST(UpperBoundMonitorTest, DetectsHeavyTailArrival) {
  // A stable 8-bit metric suddenly grows a heavy tail: the upper bound
  // jumps and the monitor flags it.
  UpperBoundMonitor monitor(2);
  for (int window = 0; window < 5; ++window) {
    EXPECT_FALSE(monitor.ObserveWindow(8));
  }
  EXPECT_TRUE(monitor.ObserveWindow(15));
}

TEST(UpperBoundMonitorDeathTest, InvalidThresholdAborts) {
  EXPECT_DEATH(UpperBoundMonitor(0), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
