#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "rng/distributions.h"
#include "rng/rng.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

constexpr int kSamples = 200000;

// Draws kSamples from `sample` and returns the accumulated moments.
template <typename F>
Welford Moments(F sample) {
  Rng rng(99);
  Welford acc;
  for (int i = 0; i < kSamples; ++i) acc.Add(sample(rng));
  return acc;
}

TEST(DistributionsTest, UniformMomentsAndSupport) {
  const Welford acc =
      Moments([](Rng& rng) { return SampleUniform(rng, 2.0, 6.0); });
  EXPECT_NEAR(acc.mean(), 4.0, 0.02);
  EXPECT_NEAR(acc.population_variance(), 16.0 / 12.0, 0.05);
  EXPECT_GE(acc.min(), 2.0);
  EXPECT_LT(acc.max(), 6.0);
}

TEST(DistributionsTest, NormalMoments) {
  const Welford acc =
      Moments([](Rng& rng) { return SampleNormal(rng, 10.0, 3.0); });
  EXPECT_NEAR(acc.mean(), 10.0, 0.05);
  EXPECT_NEAR(acc.population_stddev(), 3.0, 0.05);
}

TEST(DistributionsTest, NormalZeroStddevIsDeterministic) {
  Rng rng(1);
  EXPECT_DOUBLE_EQ(SampleNormal(rng, 5.0, 0.0), 5.0);
}

TEST(DistributionsTest, ExponentialMomentsAndPositivity) {
  const Welford acc =
      Moments([](Rng& rng) { return SampleExponential(rng, 4.0); });
  EXPECT_NEAR(acc.mean(), 4.0, 0.1);
  EXPECT_NEAR(acc.population_variance(), 16.0, 1.0);
  EXPECT_GE(acc.min(), 0.0);
}

TEST(DistributionsTest, LaplaceMoments) {
  const Welford acc =
      Moments([](Rng& rng) { return SampleLaplace(rng, 1.0, 2.0); });
  EXPECT_NEAR(acc.mean(), 1.0, 0.05);
  // Var = 2 * scale^2 = 8.
  EXPECT_NEAR(acc.population_variance(), 8.0, 0.5);
}

TEST(DistributionsTest, LaplaceIsSymmetric) {
  Rng rng(3);
  int above = 0;
  for (int i = 0; i < kSamples; ++i) {
    if (SampleLaplace(rng, 0.0, 1.0) > 0) ++above;
  }
  EXPECT_NEAR(static_cast<double>(above) / kSamples, 0.5, 0.01);
}

TEST(DistributionsTest, ParetoSupportAndMean) {
  // Shape 3 has finite mean scale * shape / (shape - 1) = 1.5.
  const Welford acc =
      Moments([](Rng& rng) { return SamplePareto(rng, 1.0, 3.0); });
  EXPECT_GE(acc.min(), 1.0);
  EXPECT_NEAR(acc.mean(), 1.5, 0.05);
}

TEST(DistributionsTest, ParetoHeavyTailProducesExtremes) {
  Rng rng(5);
  double max_seen = 0.0;
  for (int i = 0; i < kSamples; ++i) {
    max_seen = std::max(max_seen, SamplePareto(rng, 1.0, 1.05));
  }
  // A shape-1.05 tail reliably produces values orders of magnitude above
  // the scale in 200k draws.
  EXPECT_GT(max_seen, 1000.0);
}

TEST(DistributionsTest, LognormalMedian) {
  Rng rng(7);
  int below = 0;
  const double median = std::exp(2.0);
  for (int i = 0; i < kSamples; ++i) {
    if (SampleLognormal(rng, 2.0, 0.5) < median) ++below;
  }
  EXPECT_NEAR(static_cast<double>(below) / kSamples, 0.5, 0.01);
}

TEST(DistributionsTest, DiscreteSamplerMatchesWeights) {
  const std::vector<double> weights = {1.0, 3.0, 0.0, 6.0};
  const DiscreteSampler sampler(weights);
  Rng rng(11);
  std::vector<int> counts(4, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[sampler.Sample(rng)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kSamples), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kSamples), 0.3, 0.01);
  EXPECT_EQ(counts[2], 0);
  EXPECT_NEAR(counts[3] / static_cast<double>(kSamples), 0.6, 0.01);
}

TEST(DistributionsTest, DiscreteSamplerSingleBucket) {
  const DiscreteSampler sampler({5.0});
  Rng rng(13);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(sampler.Sample(rng), 0u);
}

TEST(DistributionsDeathTest, DiscreteSamplerRejectsBadWeights) {
  Rng rng(1);
  EXPECT_DEATH(DiscreteSampler({0.0, 0.0}), "BITPUSH_CHECK failed");
  EXPECT_DEATH(DiscreteSampler({1.0, -1.0}), "BITPUSH_CHECK failed");
  EXPECT_DEATH(DiscreteSampler({}), "BITPUSH_CHECK failed");
}

TEST(DistributionsTest, BinomialEdgeCases) {
  Rng rng(19);
  EXPECT_EQ(SampleBinomial(rng, 0, 0.5), 0);
  EXPECT_EQ(SampleBinomial(rng, 100, 0.0), 0);
  EXPECT_EQ(SampleBinomial(rng, 100, 1.0), 100);
}

TEST(DistributionsTest, BinomialSmallNMoments) {
  Rng rng(23);
  Welford acc;
  for (int i = 0; i < kSamples; ++i) {
    acc.Add(static_cast<double>(SampleBinomial(rng, 20, 0.25)));
  }
  EXPECT_NEAR(acc.mean(), 5.0, 0.05);
  EXPECT_NEAR(acc.population_variance(), 20 * 0.25 * 0.75, 0.1);
}

TEST(DistributionsTest, BinomialLargeNUsesBoundedApproximation) {
  Rng rng(29);
  Welford acc;
  const int64_t n = 100000;
  for (int i = 0; i < 2000; ++i) {
    const int64_t draw = SampleBinomial(rng, n, 0.5);
    EXPECT_GE(draw, 0);
    EXPECT_LE(draw, n);
    acc.Add(static_cast<double>(draw));
  }
  EXPECT_NEAR(acc.mean(), 50000.0, 50.0);
  EXPECT_NEAR(acc.population_stddev(), std::sqrt(25000.0), 25.0);
}

}  // namespace
}  // namespace bitpush
