#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "core/planner.h"
#include "data/census.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

TEST(UnitVarianceTest, WorstCaseMatchesHandComputation) {
  // Two bits, uniform allocation, worst-case means 1/2:
  // V1 = 4^0 * 0.25 / 0.5 + 4^1 * 0.25 / 0.5 = 0.5 + 2 = 2.5.
  EXPECT_NEAR(UnitVariance({0.5, 0.5}, {}, 0.0), 2.5, 1e-12);
}

TEST(UnitVarianceTest, KnownMeansReduceVariance) {
  const double worst = UnitVariance({0.5, 0.5}, {}, 0.0);
  const double informed = UnitVariance({0.5, 0.5}, {0.1, 0.9}, 0.0);
  EXPECT_LT(informed, worst);
}

TEST(UnitVarianceTest, DpAddsRandomizedResponseTerm) {
  const double clean = UnitVariance({0.5, 0.5}, {0.5, 0.5}, 0.0);
  const double noisy = UnitVariance({0.5, 0.5}, {0.5, 0.5}, 1.0);
  const double rr_var = std::exp(1.0) / ((std::exp(1.0) - 1.0) *
                                         (std::exp(1.0) - 1.0));
  // Extra contribution: sum_j 4^j rr_var / p_j = (1 + 4) * rr_var / 0.5.
  EXPECT_NEAR(noisy - clean, (1.0 + 4.0) * rr_var / 0.5, 1e-9);
}

TEST(UnitVarianceTest, DegenerateBitsNeedNoProbability) {
  // A bit with mean exactly 0 or 1 contributes nothing even at p = 0.
  EXPECT_NEAR(UnitVariance({1.0, 0.0}, {0.5, 1.0}, 0.0), 0.25, 1e-12);
}

TEST(UnitVarianceDeathTest, VariancefulBitWithZeroProbabilityAborts) {
  EXPECT_DEATH(UnitVariance({1.0, 0.0}, {0.5, 0.5}, 0.0),
               "zero sampling probability");
}

TEST(PlanForStdErrorTest, InvertsTheVarianceLaw) {
  const CohortPlan plan = PlanForStdError({0.5, 0.5}, {}, 0.0, 0.05);
  // n = V1 / target^2 = 2.5 / 0.0025 = 1000.
  EXPECT_EQ(plan.required_clients, 1000);
  EXPECT_NEAR(plan.predicted_stderr_codewords, 0.05, 1e-9);
}

TEST(PlanForStdErrorTest, TighterTargetNeedsQuadraticallyMoreClients) {
  const CohortPlan loose = PlanForStdError({0.5, 0.5}, {}, 0.0, 0.1);
  const CohortPlan tight = PlanForStdError({0.5, 0.5}, {}, 0.0, 0.01);
  EXPECT_NEAR(static_cast<double>(tight.required_clients) /
                  static_cast<double>(loose.required_clients),
              100.0, 1.0);
}

TEST(PlanForNrmseTest, PredictionMatchesSimulation) {
  // Plan a cohort for 2% NRMSE on census ages, then verify by simulation
  // that the achieved NRMSE is close to (and not far above) the target.
  Rng data_rng(1);
  const Dataset big = CensusAges(300000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<double> probabilities = GeometricProbabilities(7, 1.0);

  // Exact bit means of the population, as the planner's mean guess.
  std::vector<double> bit_means(7, 0.0);
  const std::vector<uint64_t> codewords = codec.EncodeAll(big.values());
  for (const uint64_t c : codewords) {
    for (int j = 0; j < 7; ++j) {
      bit_means[static_cast<size_t>(j)] += FixedPointCodec::Bit(c, j);
    }
  }
  for (double& m : bit_means) m /= static_cast<double>(codewords.size());

  const double target_nrmse = 0.02;
  const CohortPlan plan =
      PlanForNrmse(codec, probabilities, bit_means, 0.0, big.truth().mean,
                   target_nrmse);
  ASSERT_GT(plan.required_clients, 100);
  ASSERT_LT(plan.required_clients, 100000);

  const std::vector<uint64_t> cohort(
      codewords.begin(), codewords.begin() + plan.required_clients);
  BitPushingConfig config;
  config.probabilities = probabilities;
  const ErrorStats stats =
      RunRepetitions(150, 2, big.truth().mean, [&](Rng& rng) {
        return codec.Decode(
            RunBasicBitPushing(cohort, config, rng).estimate_codeword);
      });
  // The realized error must be within ~35% of the planned target (the
  // plan ignores the finite-population correction, so it overestimates).
  EXPECT_LT(stats.nrmse, 1.2 * target_nrmse);
  EXPECT_GT(stats.nrmse, 0.4 * target_nrmse);
}

TEST(PlannerDeathTest, InvalidInputsAbort) {
  EXPECT_DEATH(PlanForStdError({0.5, 0.5}, {}, 0.0, 0.0),
               "BITPUSH_CHECK failed");
  const FixedPointCodec codec = FixedPointCodec::Integer(2);
  EXPECT_DEATH(PlanForNrmse(codec, {1.0}, {}, 0.0, 1.0, 0.1),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(PlanForNrmse(codec, {0.5, 0.5}, {}, 0.0, 0.0, 0.1),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
