#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "core/fixed_point.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

TEST(BitHistogramTest, AddAndQuery) {
  BitHistogram histogram(3);
  histogram.Add(0, 1);
  histogram.Add(0, 0);
  histogram.Add(2, 1);
  EXPECT_EQ(histogram.bits(), 3);
  EXPECT_EQ(histogram.total(0), 2);
  EXPECT_EQ(histogram.ones(0), 1);
  EXPECT_EQ(histogram.total(1), 0);
  EXPECT_EQ(histogram.total(2), 1);
  EXPECT_EQ(histogram.ones(2), 1);
  EXPECT_EQ(histogram.TotalReports(), 3);
}

TEST(BitHistogramTest, MergePoolsCounts) {
  BitHistogram a(2);
  a.Add(0, 1);
  BitHistogram b(2);
  b.Add(0, 0);
  b.Add(1, 1);
  a.Merge(b);
  EXPECT_EQ(a.total(0), 2);
  EXPECT_EQ(a.ones(0), 1);
  EXPECT_EQ(a.total(1), 1);
}

TEST(BitHistogramTest, UnbiasedMeansWithoutNoise) {
  BitHistogram histogram(2);
  histogram.Add(0, 1);
  histogram.Add(0, 1);
  histogram.Add(0, 0);
  histogram.Add(0, 0);
  std::vector<bool> observed;
  const std::vector<double> means = histogram.UnbiasedMeans(
      RandomizedResponse::Disabled(), &observed);
  EXPECT_DOUBLE_EQ(means[0], 0.5);
  EXPECT_DOUBLE_EQ(means[1], 0.0);
  EXPECT_TRUE(observed[0]);
  EXPECT_FALSE(observed[1]);
}

TEST(BitHistogramTest, UnbiasedMeansInvertsRandomizedResponse) {
  // All raw reports 1 under RR with truth-prob p: the raw mean is 1 and the
  // unbiased mean is Unbias(1) > 1 — unclamped by design.
  const RandomizedResponse rr(1.0);
  BitHistogram histogram(1);
  for (int i = 0; i < 10; ++i) histogram.Add(0, 1);
  const std::vector<double> means = histogram.UnbiasedMeans(rr);
  EXPECT_GT(means[0], 1.0);
  EXPECT_NEAR(means[0], rr.Unbias(1.0), 1e-12);
}

TEST(BitHistogramDeathTest, InvalidUseAborts) {
  BitHistogram histogram(2);
  EXPECT_DEATH(histogram.Add(2, 0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(histogram.Add(0, 2), "BITPUSH_CHECK failed");
  BitHistogram other(3);
  EXPECT_DEATH(histogram.Merge(other), "BITPUSH_CHECK failed");
}

TEST(RecombineBitMeansTest, WeightsArePowersOfTwo) {
  EXPECT_DOUBLE_EQ(RecombineBitMeans({1.0, 1.0, 1.0}), 7.0);
  EXPECT_DOUBLE_EQ(RecombineBitMeans({0.5, 0.5}), 1.5);
  EXPECT_DOUBLE_EQ(RecombineBitMeans({0.0, 0.0, 0.25}), 1.0);
}

TEST(RecombineBitMeansTest, MaskDropsBits) {
  EXPECT_DOUBLE_EQ(RecombineBitMeans({1.0, 1.0, 1.0},
                                     {true, false, true}),
                   5.0);
}

TEST(MakeBitReportTest, ExtractsCorrectBitWithoutNoise) {
  Rng rng(1);
  const RandomizedResponse none = RandomizedResponse::Disabled();
  EXPECT_EQ(MakeBitReport(0b1010, 1, none, rng), 1);
  EXPECT_EQ(MakeBitReport(0b1010, 0, none, rng), 0);
  EXPECT_EQ(MakeBitReport(0b1010, 3, none, rng), 1);
}

// ---------------------------------------------------------------------------
// Protocol-level properties.

TEST(BasicBitPushingTest, ExactRecoveryWhenEveryBitFullySampled) {
  // One bit, all clients report it, no noise: the estimate is the exact
  // mean of the codewords.
  const std::vector<uint64_t> codewords = {0, 1, 1, 1};
  BitPushingConfig config;
  config.probabilities = {1.0};
  Rng rng(2);
  const BitPushingResult result =
      RunBasicBitPushing(codewords, config, rng);
  EXPECT_DOUBLE_EQ(result.estimate_codeword, 0.75);
  EXPECT_DOUBLE_EQ(result.bit_means[0], 0.75);
}

TEST(BasicBitPushingTest, ConstantPopulationIsRecoveredExactly) {
  // Every client holds 42; each bit mean is exactly 0 or 1 regardless of
  // which clients report it, so the estimate is exact with any allocation.
  const std::vector<uint64_t> codewords(1000, 42);
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, 0.5);
  Rng rng(3);
  const BitPushingResult result =
      RunBasicBitPushing(codewords, config, rng);
  EXPECT_DOUBLE_EQ(result.estimate_codeword, 42.0);
  EXPECT_DOUBLE_EQ(result.variance_bound, 0.0);
}

// gtest prints a case's bytes into its listed name, so the low byte of the
// label's address is part of the name. The labels sit in one 256-byte-aligned
// block, which fixes that byte whatever else is linked into the binary; the
// 16-byte lead keeps the byte each case has always printed.
struct alignas(256) CaseLabels {
  char lead[16] = {};
  char uniform_central[16] = "uniform_central";
  char weighted_half[14] = "weighted_half";
  char weighted_one[13] = "weighted_one";
  char local_randomness[17] = "local_randomness";
  char with_dp[8] = "with_dp";
  char bsend_4[8] = "bsend_4";
};
constexpr CaseLabels kCaseLabels;

struct UnbiasednessCase {
  const char* label;
  double gamma;
  double epsilon;
  bool central;
  int bits_per_client;
};

class BitPushingUnbiasednessTest
    : public ::testing::TestWithParam<UnbiasednessCase> {};

TEST_P(BitPushingUnbiasednessTest, EstimatorIsUnbiased) {
  // Lemma 3.1 / Equation (1): E[estimate] = true mean, for every sampling
  // allocation, randomness mode, DP setting, and b_send.
  const UnbiasednessCase& test_case = GetParam();
  Rng data_rng(4);
  const Dataset data = UniformData(4000, 0.0, 200.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());
  std::vector<double> decoded;
  for (const uint64_t c : codewords) {
    decoded.push_back(static_cast<double>(c));
  }
  const double truth = Mean(decoded);

  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, test_case.gamma);
  config.epsilon = test_case.epsilon;
  config.central_randomness = test_case.central;
  config.bits_per_client = test_case.bits_per_client;

  const ErrorStats stats =
      RunRepetitions(400, 5, truth, [&](Rng& rng) {
        return RunBasicBitPushing(codewords, config, rng).estimate_codeword;
      });
  // Bias must be statistically indistinguishable from 0: within 4 standard
  // errors of the mean estimate.
  const double stderr_mean =
      stats.rmse / std::sqrt(static_cast<double>(stats.repetitions));
  EXPECT_LT(std::abs(stats.bias), 4.0 * stderr_mean + 1e-9)
      << test_case.label;
}

INSTANTIATE_TEST_SUITE_P(
    Allocations, BitPushingUnbiasednessTest,
    ::testing::Values(
        UnbiasednessCase{kCaseLabels.uniform_central, 0.0, 0.0, true, 1},
        UnbiasednessCase{kCaseLabels.weighted_half, 0.5, 0.0, true, 1},
        UnbiasednessCase{kCaseLabels.weighted_one, 1.0, 0.0, true, 1},
        UnbiasednessCase{kCaseLabels.local_randomness, 0.5, 0.0, false, 1},
        UnbiasednessCase{kCaseLabels.with_dp, 0.5, 1.0, true, 1},
        UnbiasednessCase{kCaseLabels.bsend_4, 0.5, 0.0, true, 4}),
    [](const ::testing::TestParamInfo<UnbiasednessCase>& info) {
      return info.param.label;
    });

TEST(BasicBitPushingTest, EmpiricalVarianceMatchesLemma31) {
  // The empirical variance of the estimator across repetitions must match
  // the Lemma 3.1 expression evaluated at the true bit means.
  Rng data_rng(6);
  const Dataset data = UniformData(2000, 0.0, 255.0, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());

  // True bit means.
  std::vector<double> true_means(8, 0.0);
  for (const uint64_t c : codewords) {
    for (int j = 0; j < 8; ++j) {
      true_means[static_cast<size_t>(j)] += FixedPointCodec::Bit(c, j);
    }
  }
  for (double& m : true_means) m /= static_cast<double>(codewords.size());

  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, 1.0);

  const std::vector<double> estimates =
      CollectRepetitions(3000, 7, [&](Rng& rng) {
        return RunBasicBitPushing(codewords, config, rng).estimate_codeword;
      });
  const double empirical_variance = PopulationVariance(estimates);
  const double n = static_cast<double>(codewords.size());
  const double predicted_bound =
      VarianceBound(true_means, config.probabilities, n);
  // Lemma 3.1 assumes each bit mean comes from independent draws; the QMC
  // assignment samples clients *without replacement*, so each bit's
  // variance carries a finite-population correction (N - n_j)/(N - 1) and
  // the realized variance sits strictly below the bound. Check the
  // fpc-adjusted prediction tightly and the bound as an upper envelope.
  double predicted_fpc = 0.0;
  for (size_t j = 0; j < true_means.size(); ++j) {
    const double n_j = n * config.probabilities[j];
    if (n_j <= 0.0) continue;
    const double fpc = (n - n_j) / (n - 1.0);
    predicted_fpc += std::exp2(2.0 * static_cast<double>(j)) *
                     true_means[j] * (1.0 - true_means[j]) / n_j * fpc;
  }
  EXPECT_NEAR(empirical_variance / predicted_fpc, 1.0, 0.2);
  EXPECT_LT(empirical_variance, 1.1 * predicted_bound);
}

TEST(BasicBitPushingTest, BsendReducesVariancePerCorollary32) {
  Rng data_rng(8);
  const Dataset data = UniformData(1000, 0.0, 255.0, data_rng);
  const std::vector<uint64_t> codewords =
      FixedPointCodec::Integer(8).EncodeAll(data.values());

  auto variance_with_bsend = [&](int b_send) {
    BitPushingConfig config;
    config.probabilities = GeometricProbabilities(8, 1.0);
    config.bits_per_client = b_send;
    const std::vector<double> estimates =
        CollectRepetitions(1500, 9, [&](Rng& rng) {
          return RunBasicBitPushing(codewords, config, rng)
              .estimate_codeword;
        });
    return PopulationVariance(estimates);
  };
  const double v1 = variance_with_bsend(1);
  const double v4 = variance_with_bsend(4);
  // Corollary 3.2: variance shrinks by ~b_send (allow slack: negative
  // covariance between bits can make it shrink faster).
  EXPECT_NEAR(v1 / v4, 4.0, 1.5);
}

TEST(BasicBitPushingTest, CentralRandomnessNoLessAccurateThanLocal) {
  Rng data_rng(10);
  const Dataset data = UniformData(2000, 0.0, 255.0, data_rng);
  const std::vector<uint64_t> codewords =
      FixedPointCodec::Integer(8).EncodeAll(data.values());
  auto variance_with_mode = [&](bool central) {
    BitPushingConfig config;
    config.probabilities = GeometricProbabilities(8, 1.0);
    config.central_randomness = central;
    const std::vector<double> estimates =
        CollectRepetitions(2000, 11, [&](Rng& rng) {
          return RunBasicBitPushing(codewords, config, rng)
              .estimate_codeword;
        });
    return PopulationVariance(estimates);
  };
  // QMC report counts remove one source of variance; central must not be
  // noticeably worse.
  EXPECT_LT(variance_with_mode(true), 1.1 * variance_with_mode(false));
}

TEST(BasicBitPushingTest, DpNoiseInflatesVariancePredictably) {
  const std::vector<uint64_t> codewords(2000, 100);
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(8, 1.0);
  config.epsilon = 1.0;
  Rng rng(12);
  const BitPushingResult result =
      RunBasicBitPushing(codewords, config, rng);
  // Constant data: without DP the bound is 0; with DP it is the pure RR
  // term of Section 3.3.
  EXPECT_GT(result.variance_bound, 0.0);
  const RandomizedResponse rr(1.0);
  double expected = 0.0;
  for (int j = 0; j < 8; ++j) {
    expected += std::exp2(2.0 * j) * rr.ReportVariance() /
                static_cast<double>(result.histogram.total(j));
  }
  EXPECT_NEAR(result.variance_bound / expected, 1.0, 0.25);
}

TEST(BasicBitPushingTest, UnsampledBitsAreReportedUnobserved) {
  const std::vector<uint64_t> codewords(100, 3);
  BitPushingConfig config;
  config.probabilities = {0.5, 0.5, 0.0};  // bit 2 never sampled
  Rng rng(13);
  const BitPushingResult result =
      RunBasicBitPushing(codewords, config, rng);
  EXPECT_FALSE(result.observed[2]);
  EXPECT_TRUE(result.observed[0]);
  EXPECT_EQ(result.histogram.total(2), 0);
}

TEST(BasicBitPushingTest, OneBitPerClientPerPass) {
  const std::vector<uint64_t> codewords(500, 7);
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(4, 0.5);
  Rng rng(14);
  const BitPushingResult result =
      RunBasicBitPushing(codewords, config, rng);
  // Exactly one report per client: the worst-case disclosure guarantee.
  EXPECT_EQ(result.histogram.TotalReports(), 500);
}

TEST(BasicBitPushingDeathTest, InvalidConfigAborts) {
  const std::vector<uint64_t> codewords(10, 1);
  Rng rng(1);
  BitPushingConfig config;  // empty probabilities
  EXPECT_DEATH(RunBasicBitPushing(codewords, config, rng),
               "BITPUSH_CHECK failed");
  config.probabilities = {1.0};
  config.bits_per_client = 0;
  EXPECT_DEATH(RunBasicBitPushing(codewords, config, rng),
               "BITPUSH_CHECK failed");
  config.bits_per_client = 1;
  EXPECT_DEATH(RunBasicBitPushing({}, config, rng), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
