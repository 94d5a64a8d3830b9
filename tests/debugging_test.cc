#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "data/synthetic.h"
#include "federated/debugging.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

// Runs a plain collection round over the values and returns the histogram.
BitHistogram CollectHistogram(const std::vector<double>& values, int bits,
                              double epsilon, uint64_t seed) {
  const FixedPointCodec codec = FixedPointCodec::Integer(bits);
  BitPushingConfig config;
  config.probabilities = UniformProbabilities(bits);
  config.epsilon = epsilon;
  Rng rng(seed);
  return RunBasicBitPushing(codec.EncodeAll(values), config, rng).histogram;
}

TEST(DebuggingTest, HealthyMetricHasNoFindings) {
  Rng rng(1);
  const Dataset data = UniformData(20000, 0.0, 200.0, rng);
  const BitHistogram histogram =
      CollectHistogram(data.values(), 8, 0.0, 2);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.0);
  EXPECT_TRUE(diagnostics.findings.empty());
  EXPECT_EQ(diagnostics.highest_used_bit, 7);
  EXPECT_FALSE(diagnostics.constant_metric);
  EXPECT_FALSE(diagnostics.saturated);
}

TEST(DebuggingTest, DetectsConstantMetric) {
  const std::vector<double> values(5000, 42.0);
  const BitHistogram histogram = CollectHistogram(values, 8, 0.0, 3);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.0);
  EXPECT_TRUE(diagnostics.constant_metric);
  EXPECT_FALSE(diagnostics.all_zero);
  ASSERT_FALSE(diagnostics.findings.empty());
  EXPECT_NE(diagnostics.findings.front().find("constant"),
            std::string::npos);
}

TEST(DebuggingTest, DetectsDeadCounter) {
  const std::vector<double> values(5000, 0.0);
  const BitHistogram histogram = CollectHistogram(values, 8, 0.0, 4);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.0);
  EXPECT_TRUE(diagnostics.all_zero);
  EXPECT_EQ(diagnostics.highest_used_bit, -1);
  ASSERT_FALSE(diagnostics.findings.empty());
  EXPECT_NE(diagnostics.findings.front().find("zero"), std::string::npos);
}

TEST(DebuggingTest, DetectsSaturationFromUndersizedWidth) {
  // Heavy-tailed data clipped to 6 bits: most values hit the ceiling 63.
  Rng rng(5);
  const Dataset data = ParetoData(20000, 100.0, 1.2, rng);
  const BitHistogram histogram =
      CollectHistogram(data.Clipped(0.0, 63.0).values(), 6, 0.0, 6);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.0);
  EXPECT_TRUE(diagnostics.saturated);
  // Saturation blocks any "shrink the width" advice.
  EXPECT_EQ(RecommendBitWidth(diagnostics, 6), 6);
}

TEST(DebuggingTest, DetectsOversizedWidth) {
  // Ages (7 bits of signal) collected at 20 bits.
  Rng rng(7);
  const Dataset data = UniformData(20000, 0.0, 100.0, rng);
  const BitHistogram histogram =
      CollectHistogram(data.values(), 20, 0.0, 8);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.0);
  EXPECT_GT(diagnostics.vacuous_bit_fraction, 0.5);
  EXPECT_EQ(diagnostics.highest_used_bit, 6);
  EXPECT_FALSE(diagnostics.saturated);
  // Recommendation: 7 bits of signal + 1 of headroom.
  EXPECT_EQ(RecommendBitWidth(diagnostics, 20), 8);
  ASSERT_FALSE(diagnostics.findings.empty());
  EXPECT_NE(diagnostics.findings.front().find("reduce"),
            std::string::npos);
}

TEST(DebuggingTest, DetectsNoiseDominationUnderDp) {
  // Tiny cohort + strict epsilon: nothing clears the noise floor.
  const std::vector<double> values(200, 3.0);
  const BitHistogram histogram = CollectHistogram(values, 16, 0.2, 9);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 0.2);
  EXPECT_TRUE(diagnostics.noise_dominated);
}

TEST(DebuggingTest, LargeDpCohortIsNotNoiseDominated) {
  Rng rng(10);
  const Dataset data = UniformData(100000, 0.0, 200.0, rng);
  const BitHistogram histogram =
      CollectHistogram(data.values(), 8, 1.0, 11);
  const DistributionDiagnostics diagnostics =
      DiagnoseDistribution(histogram, 1.0);
  EXPECT_FALSE(diagnostics.noise_dominated);
  EXPECT_GE(diagnostics.highest_used_bit, 6);
}

TEST(RecommendBitWidthTest, EdgeCases) {
  DistributionDiagnostics nothing;
  nothing.highest_used_bit = -1;
  EXPECT_EQ(RecommendBitWidth(nothing, 16), 1);

  DistributionDiagnostics top_heavy;
  top_heavy.highest_used_bit = 15;
  EXPECT_EQ(RecommendBitWidth(top_heavy, 16), 16);  // clamped to pilot
}

TEST(RecommendBitWidthDeathTest, InvalidInputsAbort) {
  DistributionDiagnostics diagnostics;
  EXPECT_DEATH(RecommendBitWidth(diagnostics, 0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(RecommendBitWidth(diagnostics, 8, -1),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
