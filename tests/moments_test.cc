#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/moments.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

MomentConfig DefaultConfig(int bits) {
  MomentConfig config;
  config.protocol.bits = bits;
  return config;
}

TEST(RawMomentTest, FirstMomentIsTheMean) {
  Rng data_rng(1);
  const Dataset ages = CensusAges(20000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const ErrorStats stats =
      RunRepetitions(40, 2, ages.truth().mean, [&](Rng& rng) {
        return EstimateRawMoment(ages.values(), codec, 1,
                                 DefaultConfig(7), rng);
      });
  EXPECT_LT(stats.nrmse, 0.05);
}

TEST(RawMomentTest, SecondMomentMatchesExact) {
  Rng data_rng(3);
  const Dataset ages = CensusAges(50000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  double exact = 0.0;
  for (const double x : ages.values()) exact += x * x;
  exact /= static_cast<double>(ages.size());
  const ErrorStats stats = RunRepetitions(30, 4, exact, [&](Rng& rng) {
    return EstimateRawMoment(ages.values(), codec, 2, DefaultConfig(7),
                             rng);
  });
  EXPECT_LT(stats.nrmse, 0.10);
}

TEST(RawMomentTest, ThirdMomentMatchesExact) {
  Rng data_rng(5);
  const Dataset data = UniformData(50000, 0.0, 100.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  double exact = 0.0;
  for (const double x : data.values()) exact += x * x * x;
  exact /= static_cast<double>(data.size());
  const ErrorStats stats = RunRepetitions(30, 6, exact, [&](Rng& rng) {
    return EstimateRawMoment(data.values(), codec, 3, DefaultConfig(7),
                             rng);
  });
  EXPECT_LT(stats.nrmse, 0.15);
}

TEST(CentralMomentTest, SecondCentralMomentIsVariance) {
  Rng data_rng(7);
  const Dataset ages = CensusAges(100000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const ErrorStats stats =
      RunRepetitions(25, 8, ages.truth().variance, [&](Rng& rng) {
        return EstimateCentralMoment(ages.values(), codec, 2,
                                     DefaultConfig(7), rng);
      });
  EXPECT_LT(stats.nrmse, 0.08);
}

TEST(CentralMomentTest, ThirdCentralMomentCapturesSkewSign) {
  // Exponential data has strong positive skew; census ages are also
  // right-skewed. The estimated third central moment must be positive and
  // in the right ballpark.
  Rng data_rng(9);
  const Dataset data = ExponentialData(100000, 20.0, data_rng);
  const Dataset clipped = data.Clipped(0.0, 255.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  double exact = 0.0;
  for (const double x : clipped.values()) {
    const double d = x - clipped.truth().mean;
    exact += d * d * d;
  }
  exact /= static_cast<double>(clipped.size());
  ASSERT_GT(exact, 0.0);
  const ErrorStats stats = RunRepetitions(30, 10, exact, [&](Rng& rng) {
    return EstimateCentralMoment(clipped.values(), codec, 3,
                                 DefaultConfig(8), rng);
  });
  EXPECT_GT(stats.mean_estimate, 0.0);
  EXPECT_LT(stats.nrmse, 0.5);
}

TEST(CentralMomentTest, SymmetricDataHasNearZeroThirdMoment) {
  Rng data_rng(11);
  const Dataset data = UniformData(100000, 0.0, 100.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(12);
  const double third = EstimateCentralMoment(data.values(), codec, 3,
                                             DefaultConfig(7), rng);
  // |E[(X-mu)^3]| of Uniform(0,100) is 0; estimate within a small
  // fraction of the scale 100^3.
  EXPECT_LT(std::abs(third), 0.02 * 1e6);
}

TEST(GeometricMeanTest, MatchesExactOnPositiveData) {
  Rng data_rng(13);
  const Dataset data = LognormalData(50000, 3.0, 0.5, data_rng);
  const Dataset clipped = data.Clipped(1.0, 1023.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(10);
  double exact_log = 0.0;
  for (const double x : clipped.values()) exact_log += std::log(x);
  const double exact =
      std::exp(exact_log / static_cast<double>(clipped.size()));
  const ErrorStats stats = RunRepetitions(30, 14, exact, [&](Rng& rng) {
    return EstimateGeometricMean(clipped.values(), codec, 1.0, 12,
                                 DefaultConfig(10), rng);
  });
  EXPECT_LT(stats.nrmse, 0.05);
}

TEST(GeometricMeanTest, GeometricBelowArithmeticForSkewedData) {
  Rng data_rng(15);
  const Dataset data = LognormalData(20000, 2.0, 1.0, data_rng);
  const Dataset clipped = data.Clipped(1.0, 4095.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(12);
  Rng rng(16);
  const double geometric = EstimateGeometricMean(
      clipped.values(), codec, 1.0, 12, DefaultConfig(12), rng);
  EXPECT_LT(geometric, clipped.truth().mean);
  EXPECT_GT(geometric, 0.0);
}

TEST(LogProductTest, MatchesSumOfLogs) {
  Rng data_rng(17);
  const Dataset data = UniformData(10000, 2.0, 100.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  double exact = 0.0;
  for (const double x : data.values()) exact += std::log(x);
  const ErrorStats stats = RunRepetitions(30, 18, exact, [&](Rng& rng) {
    return EstimateLogProduct(data.values(), codec, 1.0, 12,
                              DefaultConfig(7), rng);
  });
  EXPECT_LT(stats.nrmse, 0.05);
}

TEST(MomentsDeathTest, InvalidInputsAbort) {
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(1);
  EXPECT_DEATH(EstimateRawMoment({1.0, 2.0}, codec, 0, DefaultConfig(7),
                                 rng),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EstimateRawMoment({1.0}, codec, 1, DefaultConfig(7), rng),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EstimateCentralMoment({1.0, 2.0, 3.0}, codec, 2,
                                     DefaultConfig(7), rng),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EstimateLogProduct({1.0, 2.0}, codec, 0.0, 10,
                                  DefaultConfig(7), rng),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
