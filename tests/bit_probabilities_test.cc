#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"

namespace bitpush {
namespace {

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (const double x : v) total += x;
  return total;
}

// The adaptive allocation with every bit kept, falling back to Equation
// (7)'s geometric allocation when every weight vanishes. At alpha = 0.5
// it is Lemma 3.3's variance-minimizing allocation.
std::vector<double> Unmasked(const std::vector<double>& means, double alpha) {
  const int bits = static_cast<int>(means.size());
  return AdaptiveProbabilitiesMasked(means,
                                     std::vector<bool>(means.size(), true),
                                     alpha, GeometricProbabilities(bits, 1.0));
}

TEST(NormalizeProbabilitiesTest, SumsToOne) {
  std::vector<double> p = {1.0, 2.0, 5.0};
  NormalizeProbabilities(p);
  EXPECT_NEAR(Sum(p), 1.0, 1e-12);
  EXPECT_NEAR(p[0], 0.125, 1e-12);
  EXPECT_NEAR(p[2], 0.625, 1e-12);
}

TEST(NormalizeProbabilitiesDeathTest, RejectsDegenerateInput) {
  std::vector<double> zero = {0.0, 0.0};
  EXPECT_DEATH(NormalizeProbabilities(zero), "BITPUSH_CHECK failed");
  std::vector<double> negative = {1.0, -0.5};
  EXPECT_DEATH(NormalizeProbabilities(negative), "BITPUSH_CHECK failed");
}

TEST(UniformProbabilitiesTest, AllEqual) {
  const std::vector<double> p = UniformProbabilities(8);
  ASSERT_EQ(p.size(), 8u);
  for (const double x : p) EXPECT_DOUBLE_EQ(x, 0.125);
}

TEST(GeometricProbabilitiesTest, GammaZeroIsUniform) {
  const std::vector<double> p = GeometricProbabilities(5, 0.0);
  for (const double x : p) EXPECT_NEAR(x, 0.2, 1e-12);
}

TEST(GeometricProbabilitiesTest, GammaOneIsEquationSeven) {
  // p_j = 2^j / (2^b - 1).
  const int bits = 6;
  const std::vector<double> p = GeometricProbabilities(bits, 1.0);
  for (int j = 0; j < bits; ++j) {
    EXPECT_NEAR(p[static_cast<size_t>(j)],
                std::exp2(j) / (std::exp2(bits) - 1.0), 1e-12);
  }
}

TEST(GeometricProbabilitiesTest, RatioBetweenAdjacentBits) {
  const std::vector<double> p = GeometricProbabilities(10, 0.5);
  for (size_t j = 1; j < p.size(); ++j) {
    EXPECT_NEAR(p[j] / p[j - 1], std::sqrt(2.0), 1e-9);
  }
}

TEST(GeometricProbabilitiesTest, StableForWideCodewords) {
  // gamma=1 at 52 bits must not overflow/underflow to garbage.
  const std::vector<double> p = GeometricProbabilities(52, 1.0);
  EXPECT_NEAR(Sum(p), 1.0, 1e-9);
  EXPECT_GT(p.back(), 0.49);
}

TEST(BetaCoefficientsTest, Formula) {
  // beta_j = 4^j m_j (1 - m_j).
  const std::vector<double> beta = BetaCoefficients({0.5, 0.5, 0.0, 1.0});
  EXPECT_DOUBLE_EQ(beta[0], 0.25);
  EXPECT_DOUBLE_EQ(beta[1], 1.0);
  EXPECT_DOUBLE_EQ(beta[2], 0.0);
  EXPECT_DOUBLE_EQ(beta[3], 0.0);
}

TEST(BetaCoefficientsTest, ClampsNoisyMeans) {
  // DP-unbiased means can fall outside [0, 1]; beta must stay finite and
  // non-negative.
  const std::vector<double> beta = BetaCoefficients({-0.3, 1.7});
  EXPECT_DOUBLE_EQ(beta[0], 0.0);
  EXPECT_DOUBLE_EQ(beta[1], 0.0);
}

TEST(OptimalProbabilitiesTest, ProportionalToSqrtBeta) {
  // Lemma 3.3: p_j = sqrt(beta_j) / sum sqrt(beta_k).
  const std::vector<double> means = {0.5, 0.25, 0.5};
  const std::vector<double> beta = BetaCoefficients(means);
  const std::vector<double> p = Unmasked(means, 0.5);
  double norm = 0.0;
  for (const double b : beta) norm += std::sqrt(b);
  for (size_t j = 0; j < p.size(); ++j) {
    EXPECT_NEAR(p[j], std::sqrt(beta[j]) / norm, 1e-9);
  }
}

TEST(OptimalProbabilitiesTest, DegenerateBitsGetZero) {
  const std::vector<double> p = Unmasked({0.5, 0.0, 1.0}, 0.5);
  EXPECT_GT(p[0], 0.99);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_DOUBLE_EQ(p[2], 0.0);
}

TEST(OptimalProbabilitiesTest, AllDegenerateFallsBackToGeometric) {
  const std::vector<double> p = Unmasked({0.0, 1.0, 0.0}, 0.5);
  EXPECT_EQ(p, GeometricProbabilities(3, 1.0));
}

TEST(OptimalProbabilitiesTest, MinimizesVarianceOverAlternatives) {
  // The Lemma 3.3 allocation must beat uniform and geometric on the
  // Lemma 3.1 variance expression for a non-trivial mean profile.
  const std::vector<double> means = {0.5, 0.3, 0.1, 0.45, 0.02};
  const double n = 1000.0;
  const double optimal = VarianceBound(means, Unmasked(means, 0.5), n);
  EXPECT_LT(optimal, VarianceBound(means, UniformProbabilities(5), n));
  EXPECT_LT(optimal,
            VarianceBound(means, GeometricProbabilities(5, 1.0), n));
  EXPECT_LT(optimal,
            VarianceBound(means, GeometricProbabilities(5, 0.5), n));
}

TEST(OptimalProbabilitiesTest, FirstOrderOptimalityCondition) {
  // At the optimum, beta_j / p_j^2 is constant across bits with beta > 0
  // (Equation (5) of the paper).
  const std::vector<double> means = {0.4, 0.2, 0.35, 0.05};
  const std::vector<double> beta = BetaCoefficients(means);
  const std::vector<double> p = Unmasked(means, 0.5);
  const double reference = beta[0] / (p[0] * p[0]);
  for (size_t j = 1; j < p.size(); ++j) {
    if (beta[j] == 0.0) continue;
    EXPECT_NEAR(beta[j] / (p[j] * p[j]) / reference, 1.0, 1e-6);
  }
}

TEST(AdaptiveProbabilitiesTest, AlphaHalfMatchesOptimal) {
  const std::vector<double> means = {0.5, 0.25, 0.1};
  const std::vector<double> beta = BetaCoefficients(means);
  const std::vector<double> p = Unmasked(means, 0.5);
  double norm = 0.0;
  for (const double b : beta) norm += std::sqrt(b);
  for (size_t j = 0; j < p.size(); ++j) {
    EXPECT_NEAR(p[j], std::sqrt(beta[j]) / norm, 1e-12);
  }
}

TEST(AdaptiveProbabilitiesTest, AlphaOneWeightsByBeta) {
  const std::vector<double> means = {0.5, 0.5};
  const std::vector<double> p = Unmasked(means, 1.0);
  // beta = {0.25, 1.0} -> p = {0.2, 0.8}.
  EXPECT_NEAR(p[0], 0.2, 1e-12);
  EXPECT_NEAR(p[1], 0.8, 1e-12);
}

TEST(AdaptiveProbabilitiesMaskedTest, MaskZeroesBits) {
  const std::vector<double> means = {0.5, 0.5, 0.5};
  const std::vector<double> fallback = UniformProbabilities(3);
  const std::vector<double> p = AdaptiveProbabilitiesMasked(
      means, {true, false, true}, 0.5, fallback);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_NEAR(Sum(p), 1.0, 1e-12);
}

TEST(AdaptiveProbabilitiesMaskedTest, AllMaskedUsesFallback) {
  const std::vector<double> means = {0.5, 0.5};
  const std::vector<double> fallback = {0.9, 0.1};
  EXPECT_EQ(AdaptiveProbabilitiesMasked(means, {false, false}, 0.5,
                                        fallback),
            fallback);
}

TEST(VarianceBoundTest, MatchesHandComputation) {
  // bits: m = {0.5, 0.5}, p = {0.5, 0.5}, n = 100.
  // V = (1/100) * [4^0*0.25/0.5 + 4^1*0.25/0.5] = (0.5 + 2)/100.
  EXPECT_NEAR(VarianceBound({0.5, 0.5}, {0.5, 0.5}, 100.0), 0.025, 1e-12);
}

TEST(VarianceBoundTest, ZeroBetaWithZeroProbabilityIsFine) {
  EXPECT_DOUBLE_EQ(VarianceBound({0.5, 0.0}, {1.0, 0.0}, 10.0), 0.025);
}

TEST(VarianceBoundTest, PositiveBetaWithZeroProbabilityIsInfinite) {
  EXPECT_TRUE(std::isinf(VarianceBound({0.5, 0.5}, {1.0, 0.0}, 10.0)));
}

TEST(VarianceBoundTest, ScalesInverselyWithN) {
  const std::vector<double> means = {0.3, 0.6};
  const std::vector<double> p = {0.5, 0.5};
  EXPECT_NEAR(VarianceBound(means, p, 100.0),
              10.0 * VarianceBound(means, p, 1000.0), 1e-12);
}

}  // namespace
}  // namespace bitpush
