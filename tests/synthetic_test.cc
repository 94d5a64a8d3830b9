#include <vector>

#include <gtest/gtest.h>

#include "data/synthetic.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

TEST(SyntheticTest, NormalDataMomentsAndNonNegativity) {
  Rng rng(1);
  const Dataset data = NormalData(50000, 1000.0, 100.0, rng);
  EXPECT_EQ(data.size(), 50000);
  EXPECT_NEAR(data.truth().mean, 1000.0, 2.0);
  EXPECT_NEAR(data.truth().variance, 10000.0, 500.0);
  EXPECT_GE(data.truth().min, 0.0);
}

TEST(SyntheticTest, NormalDataClampsNegatives) {
  Rng rng(2);
  // Mean 0: half the mass would be negative; it must be clamped to 0.
  const Dataset data = NormalData(10000, 0.0, 50.0, rng);
  EXPECT_GE(data.truth().min, 0.0);
  EXPECT_GT(data.truth().mean, 0.0);
}

TEST(SyntheticTest, UniformDataSupport) {
  Rng rng(3);
  const Dataset data = UniformData(20000, 10.0, 30.0, rng);
  EXPECT_GE(data.truth().min, 10.0);
  EXPECT_LT(data.truth().max, 30.0);
  EXPECT_NEAR(data.truth().mean, 20.0, 0.2);
}

TEST(SyntheticTest, ExponentialDataMean) {
  Rng rng(4);
  const Dataset data = ExponentialData(50000, 25.0, rng);
  EXPECT_NEAR(data.truth().mean, 25.0, 0.5);
  EXPECT_GE(data.truth().min, 0.0);
}

TEST(SyntheticTest, ParetoDataIsHeavyTailed) {
  Rng rng(5);
  const Dataset data = ParetoData(50000, 1.0, 1.2, rng);
  EXPECT_GE(data.truth().min, 1.0);
  // Heavy tail: max dwarfs the mean.
  EXPECT_GT(data.truth().max, 50.0 * data.truth().mean);
}

TEST(SyntheticTest, LognormalDataIsPositive) {
  Rng rng(6);
  const Dataset data = LognormalData(10000, 3.0, 1.0, rng);
  EXPECT_GT(data.truth().min, 0.0);
  EXPECT_GT(data.truth().mean, 0.0);
}

TEST(SyntheticTest, ConstantDataHasZeroVariance) {
  const Dataset data("constant", std::vector<double>(1000, 42.0));
  EXPECT_DOUBLE_EQ(data.truth().mean, 42.0);
  EXPECT_DOUBLE_EQ(data.truth().variance, 0.0);
  EXPECT_DOUBLE_EQ(data.truth().min, 42.0);
  EXPECT_DOUBLE_EQ(data.truth().max, 42.0);
}

TEST(SyntheticTest, BinaryWithOutliersShape) {
  Rng rng(7);
  const Dataset data = BinaryWithOutliersData(100000, 0.001, 1000.0, rng);
  // Most mass at 0/1.
  int64_t binary = 0;
  for (const double v : data.values()) {
    if (v == 0.0 || v == 1.0) ++binary;
  }
  EXPECT_GT(binary, 99500);
  // But the outliers dominate the max (Section 4.3's pathology).
  EXPECT_GT(data.truth().max, 1000.0);
}

TEST(SyntheticTest, NoOutliersWhenFractionZero) {
  Rng rng(8);
  const Dataset data = BinaryWithOutliersData(10000, 0.0, 1000.0, rng);
  EXPECT_LE(data.truth().max, 1.0);
}

TEST(SyntheticTest, GeneratorsAreSeedDeterministic) {
  Rng a(9);
  Rng b(9);
  EXPECT_EQ(NormalData(100, 10.0, 2.0, a).values(),
            NormalData(100, 10.0, 2.0, b).values());
}

TEST(SyntheticTest, ZeroSizeDatasets) {
  Rng rng(10);
  EXPECT_TRUE(NormalData(0, 1.0, 1.0, rng).empty());
}

}  // namespace
}  // namespace bitpush
