#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/bit_probabilities.h"
#include "core/fixed_point.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

std::vector<uint64_t> EncodeAges(int64_t n, int bits, uint64_t seed) {
  Rng rng(seed);
  const Dataset ages = CensusAges(n, rng);
  return FixedPointCodec::Integer(bits).EncodeAll(ages.values());
}

double TrueMean(const std::vector<uint64_t>& codewords) {
  double sum = 0.0;
  for (const uint64_t c : codewords) sum += static_cast<double>(c);
  return sum / static_cast<double>(codewords.size());
}

TEST(AdaptiveTest, Round1UsesGeometricGammaProbe) {
  const std::vector<uint64_t> codewords = EncodeAges(1000, 7, 1);
  AdaptiveConfig config;
  config.bits = 7;
  config.gamma = 0.5;
  Rng rng(2);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_EQ(result.round1_probabilities, GeometricProbabilities(7, 0.5));
}

TEST(AdaptiveTest, SplitsPopulationByDelta) {
  const std::vector<uint64_t> codewords = EncodeAges(900, 7, 3);
  AdaptiveConfig config;
  config.bits = 7;
  config.delta = 1.0 / 3.0;
  Rng rng(4);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_EQ(result.round1.histogram.TotalReports(), 300);
  EXPECT_EQ(result.round2.histogram.TotalReports(), 600);
}

TEST(AdaptiveTest, EstimatorIsUnbiased) {
  const std::vector<uint64_t> codewords = EncodeAges(3000, 10, 5);
  const double truth = TrueMean(codewords);
  AdaptiveConfig config;
  config.bits = 10;
  const ErrorStats stats = RunRepetitions(400, 6, truth, [&](Rng& rng) {
    return RunAdaptiveBitPushing(codewords, config, rng).estimate_codeword;
  });
  const double stderr_mean =
      stats.rmse / std::sqrt(static_cast<double>(stats.repetitions));
  EXPECT_LT(std::abs(stats.bias), 4.0 * stderr_mean + 1e-9);
}

TEST(AdaptiveTest, VacuousHighBitsGetZeroRound2Probability) {
  // Ages fit 7 bits; at width 16, round 1 finds bits 7..15 to be all-zero
  // and round 2 must not sample them (beta_j = 0 -> p2_j = 0).
  const std::vector<uint64_t> codewords = EncodeAges(6000, 16, 7);
  AdaptiveConfig config;
  config.bits = 16;
  Rng rng(8);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  for (int j = 7; j < 16; ++j) {
    EXPECT_DOUBLE_EQ(result.round2_probabilities[static_cast<size_t>(j)],
                     0.0)
        << "bit " << j;
  }
  EXPECT_EQ(result.round2.histogram.totals[15], 0);
}

TEST(AdaptiveTest, AdaptiveBeatsSingleRoundAtInflatedBitDepth) {
  // The headline Figure 1c/2c behaviour: with many vacuous high-order
  // bits, the adaptive approach discards them after round 1 while the
  // single-round allocation keeps wasting samples on them.
  const std::vector<uint64_t> codewords = EncodeAges(10000, 16, 9);
  const double truth = TrueMean(codewords);

  AdaptiveConfig adaptive_config;
  adaptive_config.bits = 16;
  const ErrorStats adaptive =
      RunRepetitions(60, 10, truth, [&](Rng& rng) {
        return RunAdaptiveBitPushing(codewords, adaptive_config, rng)
            .estimate_codeword;
      });

  BitPushingConfig single_config;
  single_config.probabilities = GeometricProbabilities(16, 1.0);
  const ErrorStats single = RunRepetitions(60, 10, truth, [&](Rng& rng) {
    return RunBasicBitPushing(codewords, single_config, rng)
        .estimate_codeword;
  });

  EXPECT_LT(adaptive.nrmse, 0.6 * single.nrmse);
}

TEST(AdaptiveTest, CachingImprovesOrMatchesNonCaching) {
  const std::vector<uint64_t> codewords = EncodeAges(4000, 7, 11);
  const double truth = TrueMean(codewords);
  auto nrmse_with_caching = [&](bool caching) {
    AdaptiveConfig config;
    config.bits = 7;
    config.caching = caching;
    return RunRepetitions(150, 12, truth, [&](Rng& rng) {
             return RunAdaptiveBitPushing(codewords, config, rng)
                 .estimate_codeword;
           })
        .nrmse;
  };
  // "The net effect will be to gain more reports for each bit index, which
  // should only improve the observed accuracy" — allow a small statistical
  // margin.
  EXPECT_LT(nrmse_with_caching(true), 1.15 * nrmse_with_caching(false));
}

TEST(AdaptiveTest, ConstantPopulationRecoveredExactly) {
  const std::vector<uint64_t> codewords(500, 37);
  AdaptiveConfig config;
  config.bits = 8;
  Rng rng(13);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_DOUBLE_EQ(result.estimate_codeword, 37.0);
}

TEST(AdaptiveTest, AllZeroPopulation) {
  // Every beta is zero after round 1: round 2 falls back to the geometric
  // allocation and the estimate is exactly 0.
  const std::vector<uint64_t> codewords(400, 0);
  AdaptiveConfig config;
  config.bits = 8;
  Rng rng(14);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_DOUBLE_EQ(result.estimate_codeword, 0.0);
  EXPECT_EQ(result.round2_probabilities, result.round1_probabilities);
}

TEST(AdaptiveTest, TinyPopulationStillRuns) {
  const std::vector<uint64_t> codewords = {5, 9};
  AdaptiveConfig config;
  config.bits = 4;
  Rng rng(15);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_EQ(result.round1.histogram.TotalReports(), 1);
  EXPECT_EQ(result.round2.histogram.TotalReports(), 1);
  EXPECT_GE(result.estimate_codeword, 0.0);
}

TEST(AdaptiveTest, SquashingDiscardsNoiseBitsUnderDp) {
  // Figure 4c: with DP noise and many vacuous bits, squashing recovers
  // accuracy by zeroing bits that carry only noise.
  Rng data_rng(16);
  const Dataset data = NormalData(20000, 500.0, 100.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(20);
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());
  const double truth = TrueMean(codewords);

  auto nrmse_with_squash = [&](SquashPolicy policy) {
    AdaptiveConfig config;
    config.bits = 20;
    config.epsilon = 2.0;
    config.squash = policy;
    return RunRepetitions(40, 17, truth, [&](Rng& rng) {
             return RunAdaptiveBitPushing(codewords, config, rng)
                 .estimate_codeword;
           })
        .nrmse;
  };
  const double without = nrmse_with_squash(SquashPolicy::Off());
  const double with = nrmse_with_squash(SquashPolicy::Absolute(0.05));
  EXPECT_LT(with, 0.3 * without);
}

TEST(AdaptiveTest, SquashMaskExposedInResult) {
  const std::vector<uint64_t> codewords(3000, 6);  // bits 1 and 2 set
  AdaptiveConfig config;
  config.bits = 8;
  config.epsilon = 2.0;
  config.squash = SquashPolicy::Absolute(0.2);
  Rng rng(18);
  const AdaptiveResult result =
      RunAdaptiveBitPushing(codewords, config, rng);
  ASSERT_EQ(result.kept.size(), 8u);
  EXPECT_TRUE(result.kept[1]);
  EXPECT_TRUE(result.kept[2]);
  // High-order bits carry only DP noise around 0 and must be squashed.
  EXPECT_FALSE(result.kept[7]);
}

TEST(AdaptiveTest, VarianceBoundCoversEmpiricalVariance) {
  const std::vector<uint64_t> codewords = EncodeAges(5000, 7, 19);
  AdaptiveConfig config;
  config.bits = 7;
  Rng rng(20);
  const AdaptiveResult one = RunAdaptiveBitPushing(codewords, config, rng);
  EXPECT_GT(one.variance_bound, 0.0);
  const std::vector<double> estimates =
      CollectRepetitions(400, 21, [&](Rng& r) {
        return RunAdaptiveBitPushing(codewords, config, r)
            .estimate_codeword;
      });
  const double empirical = PopulationVariance(estimates);
  // The plug-in bound should be the right order of magnitude (within 3x).
  EXPECT_LT(empirical, 3.0 * one.variance_bound);
  EXPECT_GT(empirical, one.variance_bound / 3.0);
}

TEST(AdaptiveDeathTest, InvalidConfigAborts) {
  const std::vector<uint64_t> codewords(10, 1);
  Rng rng(1);
  AdaptiveConfig config;
  config.bits = 0;
  EXPECT_DEATH(RunAdaptiveBitPushing(codewords, config, rng),
               "BITPUSH_CHECK failed");
  config.bits = 4;
  config.delta = 0.0;
  EXPECT_DEATH(RunAdaptiveBitPushing(codewords, config, rng),
               "BITPUSH_CHECK failed");
  config.delta = 1.0;
  EXPECT_DEATH(RunAdaptiveBitPushing(codewords, config, rng),
               "BITPUSH_CHECK failed");
  config.delta = 0.5;
  EXPECT_DEATH(RunAdaptiveBitPushing({7}, config, rng),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
