#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "federated/monitor.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

MonitorConfig Config(int bits) {
  MonitorConfig config;
  config.protocol.bits = bits;
  return config;
}

TEST(MetricMonitorTest, StableMetricNeverFlags) {
  Rng rng(1);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  MetricMonitor monitor(codec, Config(10));
  for (int window = 0; window < 6; ++window) {
    const Dataset data = NormalData(8000, 300.0, 30.0, rng);
    const WindowSummary summary = monitor.IngestWindow(data.values(), rng);
    EXPECT_FALSE(summary.skipped);
    EXPECT_FALSE(summary.bound_flagged);
    EXPECT_NEAR(summary.estimate, 300.0, 30.0);
  }
  EXPECT_EQ(monitor.windows_flagged(), 0);
  EXPECT_EQ(monitor.history().size(), 6u);
}

TEST(MetricMonitorTest, MagnitudeJumpRaisesBoundFlag) {
  Rng rng(2);
  const FixedPointCodec codec = FixedPointCodec::Integer(14);
  MetricMonitor monitor(codec, Config(14));
  monitor.IngestWindow(NormalData(8000, 200.0, 20.0, rng).values(), rng);
  const WindowSummary shifted = monitor.IngestWindow(
      NormalData(8000, 8000.0, 200.0, rng).values(), rng);
  EXPECT_TRUE(shifted.bound_flagged);
  EXPECT_GT(shifted.b_max, monitor.history().front().b_max);
}

TEST(MetricMonitorTest, SmallWindowSkippedForPrivacy) {
  Rng rng(3);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  MonitorConfig config = Config(8);
  config.min_window_size = 1000;
  MetricMonitor monitor(codec, config);
  const WindowSummary summary =
      monitor.IngestWindow(std::vector<double>(50, 10.0), rng);
  EXPECT_TRUE(summary.skipped);
  EXPECT_EQ(summary.clients, 50);
  // A skipped window leaves the bound monitor untouched.
  const WindowSummary next = monitor.IngestWindow(
      NormalData(5000, 100.0, 10.0, rng).values(), rng);
  EXPECT_FALSE(next.skipped);
  EXPECT_FALSE(next.bound_flagged);  // first real window never flags
}

TEST(MetricMonitorTest, DriftFlagOnEstimateShift) {
  Rng rng(4);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  MonitorConfig config = Config(10);
  config.drift_threshold = 0.5;  // 50% relative change
  MetricMonitor monitor(codec, config);
  monitor.IngestWindow(NormalData(8000, 200.0, 20.0, rng).values(), rng);
  monitor.IngestWindow(NormalData(8000, 205.0, 20.0, rng).values(), rng);
  const WindowSummary drifted = monitor.IngestWindow(
      NormalData(8000, 600.0, 20.0, rng).values(), rng);
  EXPECT_TRUE(drifted.drift_flagged);
  EXPECT_GE(monitor.windows_flagged(), 1);
}

TEST(MetricMonitorTest, DriftDisabledByDefault) {
  Rng rng(5);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  MetricMonitor monitor(codec, Config(10));
  monitor.IngestWindow(NormalData(8000, 100.0, 10.0, rng).values(), rng);
  const WindowSummary jumped = monitor.IngestWindow(
      NormalData(8000, 900.0, 10.0, rng).values(), rng);
  EXPECT_FALSE(jumped.drift_flagged);
}

// Constant, noise-free windows (epsilon off, every client holds the same
// integer) make the estimate exact, so the drift arithmetic can be pinned
// to the threshold boundary.
std::vector<double> Constant(int64_t n, double value) {
  return std::vector<double>(static_cast<size_t>(n), value);
}

TEST(MetricMonitorTest, DriftThresholdIsStrict) {
  Rng rng(6);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  MonitorConfig config = Config(10);
  config.drift_threshold = 0.5;
  {
    // |150 - 100| / 100 == 0.5: exactly at the threshold must not flag
    // (the comparison is strict).
    MetricMonitor at_boundary(codec, config);
    at_boundary.IngestWindow(Constant(4000, 100.0), rng);
    const WindowSummary summary =
        at_boundary.IngestWindow(Constant(4000, 150.0), rng);
    EXPECT_DOUBLE_EQ(summary.estimate, 150.0);
    EXPECT_FALSE(summary.drift_flagged);
  }
  {
    // |151 - 100| / 100 > 0.5: one codeword past the boundary flags.
    MetricMonitor past_boundary(codec, config);
    past_boundary.IngestWindow(Constant(4000, 100.0), rng);
    const WindowSummary summary =
        past_boundary.IngestWindow(Constant(4000, 151.0), rng);
    EXPECT_DOUBLE_EQ(summary.estimate, 151.0);
    EXPECT_TRUE(summary.drift_flagged);
  }
}

TEST(MetricMonitorTest, SkippedWindowsExcludedFromTrailingAverage) {
  Rng rng(7);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  MonitorConfig config = Config(10);
  config.drift_threshold = 0.5;
  config.min_window_size = 1000;
  MetricMonitor monitor(codec, config);
  monitor.IngestWindow(Constant(4000, 100.0), rng);
  // Below the privacy minimum: contributes nothing to the trailing
  // average. Were its zero-valued estimate averaged in, the trailing mean
  // would drop to 50 and the next window (149, a 1.98 relative change)
  // would flag.
  EXPECT_TRUE(monitor.IngestWindow(Constant(10, 100.0), rng).skipped);
  const WindowSummary summary =
      monitor.IngestWindow(Constant(4000, 149.0), rng);
  EXPECT_FALSE(summary.drift_flagged);
}

TEST(MetricMonitorDeathTest, ConfigValidation) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  MonitorConfig mismatched = Config(10);
  EXPECT_DEATH(MetricMonitor(codec, mismatched), "BITPUSH_CHECK failed");
  MonitorConfig tiny = Config(8);
  tiny.min_window_size = 1;
  EXPECT_DEATH(MetricMonitor(codec, tiny), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
