#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "dp/bernoulli_noise.h"
#include "rng/rng.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

TEST(NoiseBitsForBudgetTest, ScalesInverselyWithEpsilonSquared) {
  const int64_t at_one = NoiseBitsForBudget(1.0, 1e-6);
  const int64_t at_half = NoiseBitsForBudget(0.5, 1e-6);
  EXPECT_NEAR(static_cast<double>(at_half) / static_cast<double>(at_one),
              4.0, 0.01);
}

TEST(NoiseBitsForBudgetTest, GrowsWithStricterDelta) {
  EXPECT_GT(NoiseBitsForBudget(1.0, 1e-12), NoiseBitsForBudget(1.0, 1e-3));
}

TEST(AddBinomialNoiseTest, ZeroNoiseBitsIsExact) {
  Rng rng(1);
  const std::vector<double> out = AddBinomialNoise({5, 100, 0}, 0, rng);
  EXPECT_DOUBLE_EQ(out[0], 5.0);
  EXPECT_DOUBLE_EQ(out[1], 100.0);
  EXPECT_DOUBLE_EQ(out[2], 0.0);
}

TEST(AddBinomialNoiseTest, NoiseIsCenteredOnCounts) {
  Rng rng(2);
  const int64_t noise_bits = 1000;
  Welford acc;
  for (int rep = 0; rep < 2000; ++rep) {
    acc.Add(AddBinomialNoise({500}, noise_bits, rng)[0]);
  }
  EXPECT_NEAR(acc.mean(), 500.0, 2.0);
  // Noise variance = m/4.
  EXPECT_NEAR(acc.population_variance(),
              static_cast<double>(noise_bits) / 4.0, 25.0);
}

TEST(AddBinomialNoiseTest, NoisyCountsCanGoNegative) {
  // The debiased count of a zero bucket is negative half the time — the
  // effect that motivates bit squashing (Figure 4b shows estimates below 0).
  Rng rng(3);
  bool saw_negative = false;
  for (int rep = 0; rep < 200 && !saw_negative; ++rep) {
    saw_negative = AddBinomialNoise({0}, 100, rng)[0] < 0.0;
  }
  EXPECT_TRUE(saw_negative);
}

TEST(DistributedVsLocalNoiseTest, DistributedNoiseIsSmallerAtScale) {
  // Section 3.3's point: distributed noise for the whole aggregate is far
  // below the sum of per-client LDP noise. Compare the noise added to a
  // count over n = 10000 clients at eps = 1:
  const int64_t n = 10000;
  const double eps = 1.0;
  // LDP randomized response: per-report variance e/(e-1)^2, summed over n.
  const double ldp_variance =
      static_cast<double>(n) * std::exp(eps) /
      ((std::exp(eps) - 1.0) * (std::exp(eps) - 1.0));
  // Distributed binomial noise sized for the same (eps, 1e-6) budget.
  const double distributed_variance =
      static_cast<double>(NoiseBitsForBudget(eps, 1e-6)) / 4.0;
  EXPECT_LT(distributed_variance, ldp_variance / 10.0);
}

TEST(BernoulliNoiseDeathTest, InvalidParamsAbort) {
  EXPECT_DEATH(NoiseBitsForBudget(0.0, 1e-6), "BITPUSH_CHECK failed");
  EXPECT_DEATH(NoiseBitsForBudget(1.0, 1.5), "BITPUSH_CHECK failed");
  Rng rng(1);
  EXPECT_DEATH(AddBinomialNoise({1}, -1, rng), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
