#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/bytes.h"
#include "util/check.h"
#include "util/flags.h"
#include "util/table.h"

namespace bitpush {
namespace {

TEST(CheckTest, PassingConditionDoesNothing) {
  BITPUSH_CHECK(true);
  BITPUSH_CHECK_EQ(1, 1);
  BITPUSH_CHECK_NE(1, 2);
  BITPUSH_CHECK_LT(1, 2);
  BITPUSH_CHECK_LE(2, 2);
  BITPUSH_CHECK_GT(3, 2);
  BITPUSH_CHECK_GE(3, 3);
}

TEST(CheckDeathTest, FailingConditionAborts) {
  EXPECT_DEATH({ BITPUSH_CHECK(false) << "context"; }, "context");
}

TEST(CheckDeathTest, ComparisonFailureAborts) {
  const int x = 3;
  EXPECT_DEATH({ BITPUSH_CHECK_EQ(x, 4); }, "BITPUSH_CHECK failed");
}

TEST(FlagSetTest, ParsesEveryType) {
  FlagSet flags;
  int64_t n = 5;
  double eps = 1.0;
  std::string label = "none";
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("eps", &eps, "epsilon");
  flags.AddString("label", &label, "label");

  const char* argv[] = {"prog", "--n=42", "--eps=0.25", "--label=census"};
  flags.Parse(4, const_cast<char**>(argv));
  EXPECT_EQ(n, 42);
  EXPECT_DOUBLE_EQ(eps, 0.25);
  EXPECT_EQ(label, "census");
}

TEST(FlagSetTest, DefaultsSurviveWhenNotPassed) {
  FlagSet flags;
  int64_t n = 7;
  flags.AddInt64("n", &n, "count");
  const char* argv[] = {"prog"};
  flags.Parse(1, const_cast<char**>(argv));
  EXPECT_EQ(n, 7);
}

TEST(FlagSetTest, NegativeNumbersParse) {
  FlagSet flags;
  int64_t n = 0;
  double x = 0.0;
  flags.AddInt64("n", &n, "count");
  flags.AddDouble("x", &x, "value");
  const char* argv[] = {"prog", "--n=-3", "--x=-2.5e2"};
  flags.Parse(3, const_cast<char**>(argv));
  EXPECT_EQ(n, -3);
  EXPECT_DOUBLE_EQ(x, -250.0);
}

TEST(FlagSetTest, UsageListsFlagsWithDefaults) {
  FlagSet flags;
  int64_t n = 9;
  flags.AddInt64("clients", &n, "number of clients");
  const std::string usage = flags.Usage("prog");
  EXPECT_NE(usage.find("--clients"), std::string::npos);
  EXPECT_NE(usage.find("9"), std::string::npos);
  EXPECT_NE(usage.find("number of clients"), std::string::npos);
}

TEST(FlagSetDeathTest, UnknownFlagExits) {
  FlagSet flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_EXIT(flags.Parse(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(EXIT_FAILURE), "Unknown flag");
}

TEST(FlagSetDeathTest, MalformedValueExits) {
  FlagSet flags;
  int64_t n = 0;
  flags.AddInt64("n", &n, "count");
  const char* argv[] = {"prog", "--n=abc"};
  EXPECT_EXIT(flags.Parse(2, const_cast<char**>(argv)),
              testing::ExitedWithCode(EXIT_FAILURE), "Bad value");
}

TEST(FlagSetDeathTest, DuplicateRegistrationAborts) {
  FlagSet flags;
  int64_t a = 0;
  int64_t b = 0;
  flags.AddInt64("n", &a, "first");
  EXPECT_DEATH(flags.AddInt64("n", &b, "second"), "duplicate flag");
}

TEST(TableTest, AlignsColumns) {
  Table table({"method", "nrmse"});
  table.NewRow().AddCell("adaptive").AddDouble(0.0123);
  table.NewRow().AddCell("dithering").AddDouble(0.5);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("method"), std::string::npos);
  EXPECT_NE(out.find("adaptive"), std::string::npos);
  EXPECT_NE(out.find("0.0123"), std::string::npos);
  // Three lines: header + 2 rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
}

TEST(TableTest, IntAndPrecisionFormatting) {
  Table table({"n", "x"});
  table.NewRow().AddInt(10000).AddDouble(0.123456789, 3);
  const std::string out = table.ToString();
  EXPECT_NE(out.find("10000"), std::string::npos);
  EXPECT_NE(out.find("0.123"), std::string::npos);
  EXPECT_EQ(out.find("0.1234"), std::string::npos);
}

TEST(TableTest, CsvOutput) {
  Table table({"method", "nrmse"});
  table.NewRow().AddCell("adaptive").AddDouble(0.5);
  table.NewRow().AddCell("a,b \"q\"").AddInt(3);
  EXPECT_EQ(table.ToCsv(),
            "method,nrmse\nadaptive,0.5\n\"a,b \"\"q\"\"\",3\n");
}

TEST(TableDeathTest, OverfilledRowAborts) {
  Table table({"only"});
  table.NewRow().AddCell("a");
  EXPECT_DEATH(table.AddCell("b"), "row overflow");
}

TEST(TableDeathTest, CellBeforeRowAborts) {
  Table table({"c"});
  EXPECT_DEATH(table.AddCell("a"), "NewRow");
}

// Known answers for the appenders: each adds the documented little-endian
// bytes after what the buffer already holds. Round trips through the Get*
// readers cannot catch a byte order or width that both sides share.
using Bytes = std::vector<uint8_t>;

// The buffer every case appends to: one byte of earlier content.
Bytes Held() { return Bytes{0xEE}; }

TEST(BytesTest, FixedWidthFieldsAppendLittleEndian) {
  Bytes out = Held();
  bytes::PutByte(0xAB, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0xAB}));

  out = Held();
  bytes::PutUint32(0x01020304u, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0x04, 0x03, 0x02, 0x01}));

  out = Held();
  bytes::PutUint64(0x0102030405060708ULL, &out);
  EXPECT_EQ(out,
            (Bytes{0xEE, 0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01}));

  out = Held();
  bytes::PutInt64(-2, &out);
  EXPECT_EQ(out,
            (Bytes{0xEE, 0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));

  out = Held();
  bytes::PutInt64(std::numeric_limits<int64_t>::min(), &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0, 0, 0, 0, 0x80}));

  // Successive fields follow one another.
  out = Held();
  bytes::PutUint32(0xA1B2C3D4u, &out);
  bytes::PutByte(0x5A, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0xD4, 0xC3, 0xB2, 0xA1, 0x5A}));
}

TEST(BytesTest, DoublesAppendTheirRawBitsIncludingNaNPayloads) {
  Bytes out = Held();
  bytes::PutDouble(1.0, &out);  // 0x3FF0000000000000
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));

  out = Held();
  bytes::PutDouble(-0.0, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0, 0, 0, 0, 0x80}));

  // A NaN keeps its sign and payload bit for bit.
  out = Held();
  bytes::PutDouble(std::bit_cast<double>(0xFFF8000000ABCDEFULL), &out);
  EXPECT_EQ(out,
            (Bytes{0xEE, 0xEF, 0xCD, 0xAB, 0x00, 0x00, 0x00, 0xF8, 0xFF}));
}

TEST(BytesTest, VariableLengthFieldsAppendCountThenElements) {
  Bytes out = Held();
  bytes::PutString("ab", &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0x02, 0, 0, 0, 'a', 'b'}));

  out = Held();
  bytes::PutString("", &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0}));

  out = Held();
  bytes::PutInt64Vector({1, -1}, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0x02, 0,    0,    0,    0x01, 0,    0,
                        0,    0,    0,    0,    0,    0xFF, 0xFF, 0xFF,
                        0xFF, 0xFF, 0xFF, 0xFF, 0xFF}));

  out = Held();
  bytes::PutInt64Vector({}, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0}));

  // 2.0 = 0x4000000000000000, -0.5 = 0xBFE0000000000000.
  out = Held();
  bytes::PutDoubleVector({2.0, -0.5}, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0x02, 0, 0, 0, 0, 0, 0, 0, 0,    0,
                        0,    0x40, 0, 0, 0, 0, 0, 0, 0xE0, 0xBF}));

  out = Held();
  bytes::PutDoubleVector({}, &out);
  EXPECT_EQ(out, (Bytes{0xEE, 0, 0, 0, 0}));
}

}  // namespace
}  // namespace bitpush
