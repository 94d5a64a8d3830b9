#include <vector>

#include <gtest/gtest.h>

#include "federated/fleet.h"
#include "federated/monitor.h"
#include "obs/metrics.h"

namespace bitpush {
namespace {

FleetConfig SmallFleet() {
  FleetConfig config;
  config.devices = 5000;
  config.metric = MetricFamily::kLatencyMs;
  return config;
}

TEST(FleetTest, AvailabilityFollowsDiurnalCycle) {
  FleetSimulator fleet(SmallFleet(), 1);
  // hour 6: sin(pi/2) = 1 -> peak; hour 18: sin(3pi/2) = -1 -> trough.
  fleet.AdvanceHours(6.0);
  const double peak = fleet.Availability();
  fleet.AdvanceHours(12.0);
  const double trough = fleet.Availability();
  EXPECT_NEAR(peak, 0.8, 1e-9);
  EXPECT_NEAR(trough, 0.2, 1e-9);
}

TEST(FleetTest, AvailabilityClampedToSane) {
  FleetConfig config = SmallFleet();
  config.availability_base = 0.1;
  config.availability_amplitude = 0.9;
  FleetSimulator fleet(config, 2);
  fleet.AdvanceHours(18.0);  // base - amplitude would be negative
  EXPECT_GE(fleet.Availability(), 0.05);
}

TEST(FleetTest, CohortSizeTracksAvailability) {
  FleetSimulator fleet(SmallFleet(), 3);
  fleet.AdvanceHours(6.0);  // peak (0.8)
  const size_t at_peak = fleet.CollectWindow(0).size();
  fleet.AdvanceHours(12.0);  // trough (0.2)
  const size_t at_trough = fleet.CollectWindow(0).size();
  EXPECT_NEAR(static_cast<double>(at_peak), 0.8 * 5000, 150);
  EXPECT_NEAR(static_cast<double>(at_trough), 0.2 * 5000, 150);
}

TEST(FleetTest, MaxCohortCapsTheWindow) {
  FleetSimulator fleet(SmallFleet(), 4);
  fleet.AdvanceHours(6.0);
  EXPECT_EQ(fleet.CollectWindow(100).size(), 100u);
}

TEST(FleetTest, MetricScaleCompounds) {
  FleetSimulator fleet(SmallFleet(), 5);
  fleet.ScaleMetric(2.0);
  fleet.ScaleMetric(10.0);
  EXPECT_DOUBLE_EQ(fleet.metric_scale(), 20.0);
}

TEST(FleetTest, RegressionShiftsCollectedReadings) {
  FleetSimulator fleet(SmallFleet(), 6);
  const std::vector<double> before = fleet.CollectWindow(2000);
  fleet.ScaleMetric(20.0);
  const std::vector<double> after = fleet.CollectWindow(2000);
  double mean_before = 0.0;
  for (const double v : before) mean_before += v;
  mean_before /= static_cast<double>(before.size());
  double mean_after = 0.0;
  for (const double v : after) mean_after += v;
  mean_after /= static_cast<double>(after.size());
  EXPECT_GT(mean_after, 10.0 * mean_before);
}

TEST(FleetTest, WindowDurationMetricObservesTheSampledMinutes) {
  // bitpush_fleet_window_sim_minutes records the LatencyModel-sampled
  // duration that last_window_minutes() reports, once per modelled window.
  obs::Registry::Default().Reset();
  obs::SetEnabled(true);
  FleetConfig config = SmallFleet();
  config.model_latency = true;
  FleetSimulator fleet(config, 9);
  fleet.CollectWindow(0);
  obs::SetEnabled(false);
  const obs::Histogram* minutes = obs::Registry::Default().GetHistogram(
      "bitpush_fleet_window_sim_minutes", "", obs::SimMinutesBounds(),
      obs::Determinism::kStable);
  EXPECT_GT(fleet.last_window_minutes(), 0.0);
  EXPECT_EQ(minutes->count(), 1);
  EXPECT_EQ(minutes->sum(), fleet.last_window_minutes());
}

TEST(FleetTest, EndToEndMonitoringFlagsInjectedRegression) {
  // The integration the module exists for: windows every 4 hours through
  // the monitor; a 20x regression injected mid-run raises the upper-bound
  // flag on the next window.
  FleetSimulator fleet(SmallFleet(), 7);
  const FixedPointCodec codec = FixedPointCodec::Integer(18);
  MonitorConfig monitor_config;
  monitor_config.protocol.bits = 18;
  MetricMonitor monitor(codec, monitor_config);
  Rng rng(8);

  bool flagged_before_regression = false;
  for (int window = 0; window < 6; ++window) {
    const WindowSummary summary =
        monitor.IngestWindow(fleet.CollectWindow(0), rng);
    flagged_before_regression |= summary.bound_flagged;
    fleet.AdvanceHours(4.0);
  }
  EXPECT_FALSE(flagged_before_regression);

  fleet.ScaleMetric(20.0);
  const WindowSummary after =
      monitor.IngestWindow(fleet.CollectWindow(0), rng);
  EXPECT_TRUE(after.bound_flagged);
}

TEST(FleetDeathTest, InvalidConfigAborts) {
  FleetConfig bad = SmallFleet();
  bad.devices = 0;
  EXPECT_DEATH(FleetSimulator(bad, 1), "BITPUSH_CHECK failed");
  FleetSimulator fleet(SmallFleet(), 2);
  EXPECT_DEATH(fleet.AdvanceHours(-1.0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(fleet.ScaleMetric(0.0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(fleet.CollectWindow(-1), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
