#include <cmath>
#include <cstdint>

#include <gtest/gtest.h>

#include "core/fixed_point.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

TEST(FixedPointTest, IntegerCodecIsIdentityOnCodewords) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  EXPECT_EQ(codec.bits(), 8);
  EXPECT_EQ(codec.max_codeword(), 255u);
  EXPECT_DOUBLE_EQ(codec.resolution(), 1.0);
  for (const uint64_t v : {0u, 1u, 100u, 255u}) {
    EXPECT_EQ(codec.Encode(static_cast<double>(v)), v);
    EXPECT_DOUBLE_EQ(codec.Decode(static_cast<double>(v)),
                     static_cast<double>(v));
  }
}

TEST(FixedPointTest, ClipsAboveAndBelow) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  EXPECT_EQ(codec.Encode(1e12), 255u);   // "truncated to 2^b - 1"
  EXPECT_EQ(codec.Encode(-50.0), 0u);
}

TEST(FixedPointTest, RangeCodecRoundTripsWithinResolution) {
  const FixedPointCodec codec(10, -100.0, 100.0);
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double x = -100.0 + 200.0 * rng.NextDouble();
    const double decoded =
        codec.Decode(static_cast<double>(codec.Encode(x)));
    EXPECT_NEAR(decoded, x, codec.resolution() / 2.0 + 1e-9);
  }
}

TEST(FixedPointTest, RangeCodecEndpoints) {
  const FixedPointCodec codec(4, 10.0, 26.0);
  EXPECT_EQ(codec.Encode(10.0), 0u);
  EXPECT_EQ(codec.Encode(26.0), 15u);
  EXPECT_DOUBLE_EQ(codec.Decode(0.0), 10.0);
  EXPECT_DOUBLE_EQ(codec.Decode(15.0), 26.0);
}

TEST(FixedPointTest, EncodeRoundsToNearest) {
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  EXPECT_EQ(codec.Encode(99.4), 99u);
  EXPECT_EQ(codec.Encode(99.6), 100u);
}

TEST(FixedPointTest, DecodeAcceptsFractionalCodewords) {
  // The recombined estimate sum_j 2^j m_j is fractional; Decode must be
  // linear on it.
  const FixedPointCodec codec(8, 0.0, 510.0);
  EXPECT_DOUBLE_EQ(codec.Decode(127.5), 255.0);
}

TEST(FixedPointTest, EncodeAllMatchesEncode) {
  const FixedPointCodec codec = FixedPointCodec::Integer(6);
  const std::vector<double> values = {0.0, 3.7, 63.0, 100.0};
  const std::vector<uint64_t> encoded = codec.EncodeAll(values);
  ASSERT_EQ(encoded.size(), values.size());
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(encoded[i], codec.Encode(values[i]));
  }
}

TEST(FixedPointTest, BitExtraction) {
  // 0b101101 = 45.
  EXPECT_EQ(FixedPointCodec::Bit(45, 0), 1);
  EXPECT_EQ(FixedPointCodec::Bit(45, 1), 0);
  EXPECT_EQ(FixedPointCodec::Bit(45, 2), 1);
  EXPECT_EQ(FixedPointCodec::Bit(45, 3), 1);
  EXPECT_EQ(FixedPointCodec::Bit(45, 4), 0);
  EXPECT_EQ(FixedPointCodec::Bit(45, 5), 1);
  EXPECT_EQ(FixedPointCodec::Bit(45, 6), 0);
}

TEST(FixedPointTest, BitsFormLinearDecomposition) {
  // Footnote 1's property: the codeword equals sum_j 2^j bit_j.
  Rng rng(2);
  for (int trial = 0; trial < 100; ++trial) {
    const uint64_t v = rng.NextBelow(uint64_t{1} << 20);
    uint64_t rebuilt = 0;
    for (int j = 0; j < 20; ++j) {
      rebuilt |= static_cast<uint64_t>(FixedPointCodec::Bit(v, j)) << j;
    }
    EXPECT_EQ(rebuilt, v);
  }
}

TEST(FixedPointTest, MaxWidthCodecRoundTripsExactly) {
  const FixedPointCodec codec = FixedPointCodec::Integer(kMaxBits);
  const uint64_t big = (uint64_t{1} << kMaxBits) - 1;
  EXPECT_EQ(codec.Encode(static_cast<double>(big)), big);
  EXPECT_DOUBLE_EQ(codec.Decode(static_cast<double>(big)),
                   static_cast<double>(big));
}

TEST(FixedPointDeathTest, InvalidParamsAbort) {
  EXPECT_DEATH(FixedPointCodec(0, 0.0, 1.0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(FixedPointCodec(60, 0.0, 1.0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(FixedPointCodec(8, 1.0, 1.0), "BITPUSH_CHECK failed");
  EXPECT_DEATH(FixedPointCodec::Bit(1, -1), "BITPUSH_CHECK failed");
  EXPECT_DEATH(FixedPointCodec::Bit(1, 64), "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
