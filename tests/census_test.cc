#include <bit>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/fixed_point.h"
#include "data/census.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

// Exact mean of the embedded age distribution (not of a finite sample).
double CensusDistributionMean() {
  const std::vector<double>& weights = CensusAgeWeights();
  double total = 0.0;
  double weighted = 0.0;
  for (size_t age = 0; age < weights.size(); ++age) {
    total += weights[age];
    weighted += static_cast<double>(age) * weights[age];
  }
  return weighted / total;
}

// Exact variance of the embedded age distribution.
double CensusDistributionVariance() {
  const std::vector<double>& weights = CensusAgeWeights();
  const double mean = CensusDistributionMean();
  double total = 0.0;
  double weighted_sq = 0.0;
  for (size_t age = 0; age < weights.size(); ++age) {
    const double d = static_cast<double>(age) - mean;
    total += weights[age];
    weighted_sq += d * d * weights[age];
  }
  return weighted_sq / total;
}

TEST(CensusTest, WeightsCoverFullSupport) {
  const std::vector<double>& weights = CensusAgeWeights();
  ASSERT_EQ(weights.size(), static_cast<size_t>(kCensusMaxAge + 1));
  for (const double w : weights) EXPECT_GT(w, 0.0);
}

TEST(CensusTest, DistributionMeanMatchesPaperRegime) {
  // The census-age workload of Section 4 has mean in the low-to-mid 30s.
  const double mean = CensusDistributionMean();
  EXPECT_GT(mean, 30.0);
  EXPECT_LT(mean, 38.0);
}

TEST(CensusTest, DistributionVarianceIsAdultPopulationScale) {
  const double variance = CensusDistributionVariance();
  // Std dev of a full age pyramid is ~20-23 years.
  EXPECT_GT(std::sqrt(variance), 18.0);
  EXPECT_LT(std::sqrt(variance), 26.0);
}

TEST(CensusTest, AgesFitSevenBits) {
  // b_max = 7: ages up to 90 need exactly 7 bits, so the "vacuous high
  // bits" experiments (Figure 2c) know where the information stops.
  Rng rng(1);
  const Dataset data = CensusAges(10000, rng);
  EXPECT_LE(data.truth().max, 127.0);
  EXPECT_GE(data.truth().max, 64.0);  // some elderly present
  const uint64_t max_code =
      FixedPointCodec::Integer(7).Encode(data.truth().max);
  EXPECT_EQ(std::bit_width(max_code), 7);
}

TEST(CensusTest, SampleMomentsConvergeToDistribution) {
  Rng rng(2);
  const Dataset data = CensusAges(200000, rng);
  EXPECT_NEAR(data.truth().mean, CensusDistributionMean(), 0.2);
  EXPECT_NEAR(data.truth().variance, CensusDistributionVariance(), 10.0);
}

TEST(CensusTest, AgesAreIntegersInRange) {
  Rng rng(3);
  const Dataset data = CensusAges(5000, rng);
  for (const double age : data.values()) {
    EXPECT_GE(age, 0.0);
    EXPECT_LE(age, static_cast<double>(kCensusMaxAge));
    EXPECT_DOUBLE_EQ(age, std::floor(age));
  }
}

TEST(CensusTest, PyramidShapeChildrenOutnumberElderly) {
  const std::vector<double>& weights = CensusAgeWeights();
  double children = 0.0;   // 0-17
  double elderly = 0.0;    // 75+
  for (int age = 0; age <= 17; ++age) children += weights[age];
  for (int age = 75; age <= kCensusMaxAge; ++age) elderly += weights[age];
  EXPECT_GT(children, 2.0 * elderly);
}

TEST(CensusTest, DeterministicSampling) {
  Rng a(7);
  Rng b(7);
  EXPECT_EQ(CensusAges(500, a).values(), CensusAges(500, b).values());
}

}  // namespace
}  // namespace bitpush
