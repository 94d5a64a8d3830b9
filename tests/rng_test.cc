#include <cstdint>
#include <set>
#include <vector>

#include <gtest/gtest.h>

#include "rng/rng.h"

namespace bitpush {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

TEST(RngTest, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (a.NextUint64() != b.NextUint64()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, ZeroSeedIsNotDegenerate) {
  Rng rng(0);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) seen.insert(rng.NextUint64());
  EXPECT_GT(seen.size(), 60u);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, NextDoubleMeanIsHalf) {
  Rng rng(11);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(RngTest, NextBelowStaysInRange) {
  Rng rng(13);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.NextBelow(bound), bound);
    }
  }
}

TEST(RngTest, NextBelowCoversAllResidues) {
  Rng rng(17);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.NextBelow(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(RngTest, PowerOfTwoBoundTakesOneDrawPerValue) {
  // 2^64 is a multiple of every power-of-two bound, so rejection sampling
  // never rejects: each value is one draw reduced mod the bound.
  for (const uint64_t bound : {uint64_t{1}, uint64_t{2}, uint64_t{256},
                               uint64_t{1} << 40, uint64_t{1} << 63}) {
    Rng a(29);
    Rng twin(29);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(a.NextBelow(bound), twin.NextUint64() % bound)
          << "bound " << bound << ", draw " << i;
    }
    EXPECT_TRUE(a == twin) << "bound " << bound;
  }
}

TEST(RngDeathTest, NextBelowZeroAborts) {
  Rng rng(1);
  EXPECT_DEATH(rng.NextBelow(0), "BITPUSH_CHECK failed");
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-0.5));
    EXPECT_TRUE(rng.NextBernoulli(1.5));
  }
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(23);
  const int n = 100000;
  int ones = 0;
  for (int i = 0; i < n; ++i) ones += rng.NextBernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.3, 0.01);
}

TEST(RngTest, NextBitIsFair) {
  Rng rng(29);
  const int n = 100000;
  int ones = 0;
  for (int i = 0; i < n; ++i) {
    const int bit = rng.NextBit();
    ASSERT_TRUE(bit == 0 || bit == 1);
    ones += bit;
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.01);
}

TEST(RngTest, ForkedStreamsAreIndependentAndDeterministic) {
  Rng parent1(31);
  Rng parent2(31);
  Rng child1 = parent1.Fork();
  Rng child2 = parent2.Fork();
  // Same parent state -> same child.
  for (int i = 0; i < 32; ++i) {
    EXPECT_EQ(child1.NextUint64(), child2.NextUint64());
  }
  // Child differs from parent's continued stream.
  Rng parent3(31);
  Rng child3 = parent3.Fork();
  int differences = 0;
  for (int i = 0; i < 16; ++i) {
    if (child3.NextUint64() != parent3.NextUint64()) ++differences;
  }
  EXPECT_GT(differences, 0);
}

TEST(RngTest, CopySnapshotsState) {
  Rng rng(37);
  rng.NextUint64();
  Rng copy = rng;
  EXPECT_EQ(rng.NextUint64(), copy.NextUint64());
}

}  // namespace
}  // namespace bitpush
