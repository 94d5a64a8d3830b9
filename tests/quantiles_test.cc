#include <vector>

#include <gtest/gtest.h>

#include "stats/quantiles.h"

namespace bitpush {
namespace {

TEST(QuantilesTest, MedianOfOddSample) {
  EXPECT_DOUBLE_EQ(Quantile({5.0, 1.0, 3.0}, 0.5), 3.0);
}

TEST(QuantilesTest, MedianInterpolatesEvenSample) {
  EXPECT_DOUBLE_EQ(Quantile({1.0, 2.0, 3.0, 4.0}, 0.5), 2.5);
}

TEST(QuantilesTest, Extremes) {
  const std::vector<double> v = {7.0, -2.0, 3.0};
  EXPECT_DOUBLE_EQ(Quantile(v, 0.0), -2.0);
  EXPECT_DOUBLE_EQ(Quantile(v, 1.0), 7.0);
}

TEST(QuantilesTest, SingleElement) {
  for (const double q : {0.0, 0.25, 0.5, 1.0}) {
    EXPECT_DOUBLE_EQ(Quantile({42.0}, q), 42.0);
  }
}

TEST(QuantilesTest, InputIsNotMutated) {
  const std::vector<double> v = {3.0, 1.0, 2.0};
  std::vector<double> copy = v;
  Quantile(copy, 0.5);
  EXPECT_EQ(copy, v);
}

TEST(QuantilesTest, LinearInterpolationInBetween) {
  // Positions: 0 -> 10, 1 -> 20; q = 0.75 of (n-1)=1 -> position 0.75.
  EXPECT_DOUBLE_EQ(Quantile({10.0, 20.0}, 0.75), 17.5);
}

TEST(QuantilesDeathTest, InvalidInputsAbort) {
  EXPECT_DEATH(Quantile({}, 0.5), "BITPUSH_CHECK failed");
  EXPECT_DEATH(Quantile({1.0}, -0.1), "BITPUSH_CHECK failed");
  EXPECT_DEATH(Quantile({1.0}, 1.1), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
