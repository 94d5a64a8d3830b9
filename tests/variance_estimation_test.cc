#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/variance_estimation.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

TEST(VarianceEstimationTest, CenteredEstimatorRecoversCensusVariance) {
  Rng data_rng(1);
  const Dataset ages = CensusAges(100000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  const ErrorStats stats =
      RunRepetitions(25, 2, ages.truth().variance, [&](Rng& rng) {
        return EstimateVariance(ages.values(), codec, config, rng).variance;
      });
  // The paper reports 1-2% normalized error at 100K clients (Figure 1b).
  EXPECT_LT(stats.nrmse, 0.05);
}

TEST(VarianceEstimationTest, MomentsEstimatorAlsoConsistent) {
  Rng data_rng(3);
  const Dataset ages = CensusAges(100000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.method = VarianceMethod::kMoments;
  config.protocol.bits = 7;
  const ErrorStats stats =
      RunRepetitions(25, 4, ages.truth().variance, [&](Rng& rng) {
        return EstimateVariance(ages.values(), codec, config, rng).variance;
      });
  EXPECT_LT(stats.nrmse, 0.30);
}

TEST(VarianceEstimationTest, CenteredBeatsMomentsPerLemma35) {
  // Lemma 3.5: the centered estimator's variance scales with
  // (sigma^2 + mean^2/n)^2/n, the moments estimator with
  // (sigma^2 + mean^2)^2/n — much worse when mean >> sigma, as with a
  // Normal(1000, 100) population.
  Rng data_rng(5);
  const Dataset data = NormalData(40000, 1000.0, 100.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(11);

  auto nrmse_with_method = [&](VarianceMethod method) {
    VarianceConfig config;
    config.method = method;
    config.protocol.bits = 11;
    return RunRepetitions(30, 6, data.truth().variance, [&](Rng& rng) {
             return EstimateVariance(data.values(), codec, config, rng)
                 .variance;
           })
        .nrmse;
  };
  const double centered = nrmse_with_method(VarianceMethod::kCentered);
  const double moments = nrmse_with_method(VarianceMethod::kMoments);
  EXPECT_LT(centered, 0.5 * moments);
}

TEST(VarianceEstimationTest, MeanPhaseEstimateIsReturned) {
  Rng data_rng(7);
  const Dataset ages = CensusAges(50000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  Rng rng(8);
  const VarianceResult result =
      EstimateVariance(ages.values(), codec, config, rng);
  EXPECT_NEAR(result.mean_estimate, ages.truth().mean,
              0.1 * ages.truth().mean);
  EXPECT_GT(result.variance, 0.0);
}

TEST(VarianceEstimationTest, ConstantDataHasNearZeroVariance) {
  const Dataset data("constant", std::vector<double>(5000, 40.0));
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  Rng rng(9);
  const VarianceResult result =
      EstimateVariance(data.values(), codec, config, rng);
  // mu_hat is exact for constant data, so all deviations are ~0 up to
  // codec resolution.
  EXPECT_NEAR(result.variance, 0.0, 1.0);
}

TEST(VarianceEstimationTest, VarianceIsNeverNegative) {
  Rng data_rng(10);
  // Tiny variance, large mean: the moments method would go negative
  // without the clamp.
  const Dataset data = NormalData(2000, 120.0, 0.5, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  VarianceConfig config;
  config.method = VarianceMethod::kMoments;
  config.protocol.bits = 8;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    Rng rng(seed);
    EXPECT_GE(EstimateVariance(data.values(), codec, config, rng).variance,
              0.0);
  }
}

TEST(VarianceEstimationTest, MeanFractionControlsSplit) {
  Rng data_rng(11);
  const Dataset ages = CensusAges(10000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  config.mean_fraction = 0.2;
  Rng rng(12);
  // Must run without aborting and produce a sane value.
  const VarianceResult result =
      EstimateVariance(ages.values(), codec, config, rng);
  EXPECT_GT(result.variance, 100.0);
  EXPECT_LT(result.variance, 2000.0);
}

TEST(VarianceEstimationDeathTest, InvalidInputsAbort) {
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  VarianceConfig config;
  config.protocol.bits = 7;
  Rng rng(1);
  EXPECT_DEATH(EstimateVariance({1.0, 2.0, 3.0}, codec, config, rng),
               "BITPUSH_CHECK failed");
  config.mean_fraction = 0.0;
  EXPECT_DEATH(
      EstimateVariance({1.0, 2.0, 3.0, 4.0, 5.0}, codec, config, rng),
      "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
