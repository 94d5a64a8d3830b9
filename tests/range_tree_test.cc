#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/fixed_point.h"
#include "core/range_tree.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "rng/rng.h"
#include "stats/quantiles.h"

namespace bitpush {
namespace {

RangeTreeConfig Config(int levels) {
  RangeTreeConfig config;
  config.levels = levels;
  return config;
}

// Exact fraction of codewords in [lo, hi].
double ExactFraction(const std::vector<uint64_t>& codewords, uint64_t lo,
                     uint64_t hi) {
  int64_t count = 0;
  for (const uint64_t c : codewords) {
    if (c >= lo && c <= hi) ++count;
  }
  return static_cast<double>(count) /
         static_cast<double>(codewords.size());
}

std::vector<uint64_t> UniformCodewords(int64_t n, uint64_t domain,
                                       Rng& rng) {
  std::vector<uint64_t> codewords(static_cast<size_t>(n));
  for (uint64_t& c : codewords) c = rng.NextBelow(domain);
  return codewords;
}

TEST(RangeTreeTest, NodeFractionsMatchUniformData) {
  Rng rng(1);
  const std::vector<uint64_t> codewords =
      UniformCodewords(100000, 256, rng);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(8), rng);
  // Level 1: two halves, ~0.5 each; level 3: eighths ~0.125.
  EXPECT_NEAR(tree.NodeFraction(1, 0), 0.5, 0.02);
  EXPECT_NEAR(tree.NodeFraction(1, 1), 0.5, 0.02);
  for (uint64_t v = 0; v < 8; ++v) {
    EXPECT_NEAR(tree.NodeFraction(3, v), 0.125, 0.02) << v;
  }
}

TEST(RangeTreeTest, RangeFractionMatchesExactOnAlignedRanges) {
  Rng rng(2);
  const std::vector<uint64_t> codewords =
      UniformCodewords(100000, 256, rng);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(8), rng);
  // [0, 127] is node 0 of level 1, [64, 127] node 1 of level 2.
  EXPECT_NEAR(tree.NodeFraction(1, 0), ExactFraction(codewords, 0, 127),
              0.03);
  EXPECT_NEAR(tree.NodeFraction(2, 1), ExactFraction(codewords, 64, 127),
              0.03);
  EXPECT_NEAR(tree.NodeFraction(1, 0) + tree.NodeFraction(1, 1), 1.0, 0.03);
}

TEST(RangeTreeTest, SingletonRangeUsesLeafLevel) {
  // All mass at codeword 5.
  const std::vector<uint64_t> codewords(5000, 5);
  Rng rng(5);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(4), rng);
  EXPECT_NEAR(tree.NodeFraction(4, 5), 1.0, 1e-9);
  EXPECT_NEAR(tree.NodeFraction(4, 6), 0.0, 1e-9);
  // [0, 4] is node 0 of level 2 ([0, 3]) plus leaf 4.
  EXPECT_NEAR(tree.NodeFraction(2, 0) + tree.NodeFraction(4, 4), 0.0, 1e-9);
}

TEST(RangeTreeTest, QuantilesMatchExactOnCensus) {
  Rng data_rng(6);
  const Dataset ages = CensusAges(200000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());
  Rng rng(7);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(7), rng);
  for (const double q : {0.25, 0.5, 0.75, 0.9}) {
    EXPECT_NEAR(tree.Quantile(q), Quantile(ages.values(), q), 4.0)
        << "q=" << q;
  }
}

TEST(RangeTreeTest, QuantilesAreMonotone) {
  Rng rng(8);
  const std::vector<uint64_t> codewords =
      UniformCodewords(50000, 1024, rng);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(10), rng);
  double previous = -1.0;
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    const double value = tree.Quantile(q);
    EXPECT_GE(value, previous);
    previous = value;
  }
}

TEST(RangeTreeTest, DpNoiseStillGivesUsableMedian) {
  Rng data_rng(9);
  const Dataset ages = CensusAges(300000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());
  RangeTreeConfig config = Config(7);
  config.epsilon = 1.0;
  Rng rng(10);
  const RangeTreeResult tree = EstimateRangeTree(codewords, config, rng);
  EXPECT_NEAR(tree.Quantile(0.5), Quantile(ages.values(), 0.5), 8.0);
}

TEST(RangeTreeTest, EveryClientReportsOnce) {
  Rng rng(11);
  const std::vector<uint64_t> codewords = UniformCodewords(9999, 16, rng);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(4), rng);
  int64_t total = 0;
  for (int level = 1; level <= 4; ++level) {
    for (uint64_t v = 0; v < (uint64_t{1} << level); ++v) {
      total += tree.NodeReports(level, v);
    }
  }
  EXPECT_EQ(total, 9999);
}

TEST(RangeTreeDeathTest, InvalidInputsAbort) {
  Rng rng(12);
  EXPECT_DEATH(EstimateRangeTree({}, Config(4), rng),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EstimateRangeTree({16}, Config(4), rng),
               "codeword outside the tree domain");
  EXPECT_DEATH(EstimateRangeTree({0}, Config(0), rng),
               "BITPUSH_CHECK failed");
  const std::vector<uint64_t> codewords(100, 1);
  const RangeTreeResult tree =
      EstimateRangeTree(codewords, Config(4), rng);
  EXPECT_DEATH(tree.NodeFraction(0, 0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(tree.Quantile(1.5), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
