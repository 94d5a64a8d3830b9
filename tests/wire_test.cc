// bitpush-lint: allow(privacy-metering): codec round-trip tests build synthetic reports; no client value is behind them

#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "federated/wire.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

TEST(WireTest, ReportRoundTrip) {
  const BitReport report{987654321, 15, 1};
  std::vector<uint8_t> buffer;
  EncodeBitReport(report, &buffer);
  EXPECT_EQ(buffer.size(), kBitReportWireSize);

  size_t offset = 0;
  BitReport decoded;
  ASSERT_TRUE(DecodeBitReport(buffer, &offset, &decoded));
  EXPECT_EQ(decoded.client_id, 987654321);
  EXPECT_EQ(decoded.bit_index, 15);
  EXPECT_EQ(decoded.bit, 1);
}

TEST(WireTest, ConsecutiveMessagesShareABuffer) {
  std::vector<uint8_t> buffer;
  EncodeBitReport(BitReport{1, 2, 1}, &buffer);
  EncodeBitReport(BitReport{4, 5, 0}, &buffer);
  size_t offset = 0;
  BitReport first;
  BitReport second;
  ASSERT_TRUE(DecodeBitReport(buffer, &offset, &first));
  ASSERT_TRUE(DecodeBitReport(buffer, &offset, &second));
  EXPECT_EQ(first.client_id, 1);
  EXPECT_EQ(second.client_id, 4);
  EXPECT_EQ(offset, buffer.size());
}

TEST(WireTest, TruncatedInputRejectedWithoutSideEffects) {
  std::vector<uint8_t> buffer;
  EncodeBitReport(BitReport{1, 2, 0}, &buffer);
  buffer.pop_back();
  size_t offset = 0;
  BitReport out{99, 99, 0};
  EXPECT_FALSE(DecodeBitReport(buffer, &offset, &out));
  EXPECT_EQ(offset, 0u);
  EXPECT_EQ(out.client_id, 99);  // untouched
}

TEST(WireTest, MalformedBitValueRejected) {
  std::vector<uint8_t> buffer;
  EncodeBitReport(BitReport{1, 2, 1}, &buffer);
  buffer.back() = 2;  // corrupt the payload bit
  size_t offset = 0;
  BitReport out;
  EXPECT_FALSE(DecodeBitReport(buffer, &offset, &out));
}

TEST(WireTest, RandomBytesNeverCrashDecoder) {
  Rng rng(1);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> junk(rng.NextBelow(64));
    for (uint8_t& b : junk) {
      b = static_cast<uint8_t>(rng.NextBelow(256));
    }
    size_t offset = 0;
    BitReport report;
    if (DecodeBitReport(junk, &offset, &report)) {
      EXPECT_TRUE(report.bit == 0 || report.bit == 1);
    }
  }
}

TEST(WireDeathTest, EncodingValidatesFields) {
  std::vector<uint8_t> buffer;
  EXPECT_DEATH(EncodeBitReport(BitReport{1, 2, 3}, &buffer),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EncodeBitReport(BitReport{1, -1, 1}, &buffer),
               "BITPUSH_CHECK failed");
  EXPECT_DEATH(EncodeBitReport(BitReport{1, 300, 1}, &buffer),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
