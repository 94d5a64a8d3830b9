#include <gtest/gtest.h>

#include "federated/report.h"

namespace bitpush {
namespace {

TEST(CommunicationStatsTest, DefaultsToZero) {
  const CommunicationStats stats;
  EXPECT_EQ(stats.requests_sent, 0);
  EXPECT_EQ(stats.reports_received, 0);
  EXPECT_EQ(stats.private_bits, 0);
  EXPECT_EQ(stats.payload_bytes, 0);
}

TEST(CommunicationStatsTest, MergeAccumulates) {
  CommunicationStats a;
  a.requests_sent = 10;
  a.reports_received = 8;
  a.private_bits = 8;
  a.payload_bytes = 330;
  CommunicationStats b;
  b.requests_sent = 5;
  b.reports_received = 5;
  b.private_bits = 5;
  b.payload_bytes = 175;
  a.MergeFrom(b);
  EXPECT_EQ(a.requests_sent, 15);
  EXPECT_EQ(a.reports_received, 13);
  EXPECT_EQ(a.private_bits, 13);
  EXPECT_EQ(a.payload_bytes, 505);
}

TEST(PayloadModelTest, OneBitRidesInASmallPacket) {
  // Section 5: "the distinction between sending a single bit versus a few
  // numeric values is not so meaningful: both can be easily communicated
  // within a single (encrypted) network packet". The report payload is
  // dominated by header overhead, not the private bit.
  EXPECT_GT(kRequestPayloadBytes, 8);
  EXPECT_LT(kRequestPayloadBytes, 64);
  EXPECT_GT(kReportPayloadBytes, 1);
  EXPECT_LT(kReportPayloadBytes, 64);
}

}  // namespace
}  // namespace bitpush
