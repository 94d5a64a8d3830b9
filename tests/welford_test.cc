#include <cmath>

#include <gtest/gtest.h>

#include "stats/welford.h"

namespace bitpush {
namespace {

TEST(WelfordTest, EmptyAccumulator) {
  const Welford acc;
  EXPECT_EQ(acc.count(), 0);
  EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
  EXPECT_DOUBLE_EQ(acc.population_variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
}

TEST(WelfordTest, SingleValue) {
  Welford acc;
  acc.Add(3.5);
  EXPECT_EQ(acc.count(), 1);
  EXPECT_DOUBLE_EQ(acc.mean(), 3.5);
  EXPECT_DOUBLE_EQ(acc.population_variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.sample_variance(), 0.0);
  EXPECT_DOUBLE_EQ(acc.min(), 3.5);
  EXPECT_DOUBLE_EQ(acc.max(), 3.5);
}

TEST(WelfordTest, KnownSmallSample) {
  Welford acc;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) acc.Add(x);
  EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
  EXPECT_DOUBLE_EQ(acc.population_variance(), 4.0);
  EXPECT_NEAR(acc.sample_variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(acc.min(), 2.0);
  EXPECT_DOUBLE_EQ(acc.max(), 9.0);
}

TEST(WelfordTest, NumericallyStableWithLargeOffset) {
  // Classic catastrophic-cancellation case for the naive sum-of-squares
  // formula: values near 1e9 with tiny variance.
  Welford acc;
  for (const double x : {1e9 + 4.0, 1e9 + 7.0, 1e9 + 13.0, 1e9 + 16.0}) {
    acc.Add(x);
  }
  EXPECT_NEAR(acc.mean(), 1e9 + 10.0, 1e-3);
  EXPECT_NEAR(acc.population_variance(), 22.5, 1e-6);
}

TEST(WelfordTest, StddevIsSqrtOfVariance) {
  Welford acc;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) acc.Add(x);
  EXPECT_DOUBLE_EQ(acc.population_stddev(),
                   std::sqrt(acc.population_variance()));
}

}  // namespace
}  // namespace bitpush
