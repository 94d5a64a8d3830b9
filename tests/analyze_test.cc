// Tests for tools/bitpush_analyze (the cross-TU dataflow analyzer) against
// the fixture trees under tests/golden/analyze/ and against the real source
// tree, which must stay free of unwaived findings.
//
//   bad/    every planted violation is found, with exact counts per check
//           and the cross-TU provenance chain printed in the message.
//   good/   contractual code is clean; one deliberate, reasoned waiver
//           lands in the budget instead of the findings.
//   waived/ the three violation shapes, each fully waived.

#include "bitpush_analyze/analyze.h"

#include <string>

#include <gtest/gtest.h>

namespace {

using bitpush::analyze::Check;
using bitpush::analyze::Finding;
using bitpush::analyze::Options;
using bitpush::analyze::Result;
using bitpush::analyze::RunAnalyze;

std::string FixturePath(const std::string& tree) {
  return std::string(BITPUSH_ANALYZE_FIXTURE_DIR) + "/" + tree;
}

int CountCheck(const Result& result, Check check) {
  int count = 0;
  for (const Finding& finding : result.findings) {
    if (finding.check == check) ++count;
  }
  return count;
}

std::string Pretty(const Result& result) {
  return bitpush::analyze::FormatReport(result);
}

TEST(AnalyzeTest, BadTreeFindsAllPlantedViolations) {
  const Result result = RunAnalyze(FixturePath("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_EQ(result.files_scanned, 10);
  EXPECT_EQ(result.findings.size(), 9u) << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kPrivacyTaint), 4) << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kDeterminismFlow), 3)
      << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kWaiverSyntax), 2) << Pretty(result);
  EXPECT_TRUE(result.waivers.empty());
}

TEST(AnalyzeTest, BadTreePrintsCrossTuProvenanceChain) {
  const Result result = RunAnalyze(FixturePath("bad"), Options{});
  ASSERT_FALSE(result.io_error);
  // The sink.cc finding's taint originates two files away, in
  // producer.cc; the message must carry the whole chain.
  bool found = false;
  for (const Finding& finding : result.findings) {
    if (finding.path != "src/federated/sink.cc") continue;
    found = true;
    EXPECT_EQ(finding.check, Check::kPrivacyTaint);
    EXPECT_NE(finding.message.find("call to BuildRaw"), std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("src/federated/producer.cc"),
              std::string::npos)
        << finding.message;
    EXPECT_NE(finding.message.find("FixedPointCodec::Bit"),
              std::string::npos)
        << finding.message;
  }
  EXPECT_TRUE(found) << Pretty(result);
}

TEST(AnalyzeTest, BadTreeFlagsChargeAfterDisclosure) {
  const Result result = RunAnalyze(FixturePath("bad"), Options{});
  ASSERT_FALSE(result.io_error);
  bool found = false;
  for (const Finding& finding : result.findings) {
    if (finding.path != "src/federated/charge_order.cc") continue;
    found = true;
    EXPECT_EQ(finding.check, Check::kPrivacyTaint);
    EXPECT_NE(finding.message.find("before the privacy-meter charge"),
              std::string::npos)
        << finding.message;
  }
  EXPECT_TRUE(found) << Pretty(result);
}

TEST(AnalyzeTest, BadTreeFlagsRawJournalAppend) {
  const Result result = RunAnalyze(FixturePath("bad"), Options{});
  ASSERT_FALSE(result.io_error);
  bool found = false;
  for (const Finding& finding : result.findings) {
    if (finding.path != "src/persist/raw_append.cc") continue;
    found = true;
    EXPECT_EQ(finding.check, Check::kPrivacyTaint);
    EXPECT_NE(finding.message.find("journal append"), std::string::npos)
        << finding.message;
  }
  EXPECT_TRUE(found) << Pretty(result);
}

TEST(AnalyzeTest, ChecksFilterRestrictsFindings) {
  Options options;
  options.checks.push_back(Check::kDeterminismFlow);
  const Result result = RunAnalyze(FixturePath("bad"), options);
  ASSERT_FALSE(result.io_error);
  // waiver-syntax stays on regardless of the filter.
  EXPECT_EQ(result.findings.size(), 5u) << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kPrivacyTaint), 0) << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kDeterminismFlow), 3)
      << Pretty(result);
  EXPECT_EQ(CountCheck(result, Check::kWaiverSyntax), 2) << Pretty(result);
}

TEST(AnalyzeTest, GoodTreeIsCleanWithOneBudgetedWaiver) {
  const Result result = RunAnalyze(FixturePath("good"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_TRUE(result.findings.empty()) << Pretty(result);
  ASSERT_EQ(result.waivers.size(), 1u);
  EXPECT_EQ(result.waivers[0].check, Check::kDeterminismFlow);
  EXPECT_EQ(result.files_scanned, 2);
}

TEST(AnalyzeTest, WaivedTreeSuppressesAllThreeShapes) {
  const Result result = RunAnalyze(FixturePath("waived"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_TRUE(result.findings.empty()) << Pretty(result);
  EXPECT_EQ(result.waivers.size(), 3u);
  const std::string report = bitpush::analyze::FormatWaiverReport(result);
  EXPECT_NE(report.find("3 waiver(s) in budget"), std::string::npos)
      << report;
}

TEST(AnalyzeTest, ReportIsByteIdenticalAcrossRuns) {
  const Result first = RunAnalyze(FixturePath("bad"), Options{});
  const Result second = RunAnalyze(FixturePath("bad"), Options{});
  EXPECT_EQ(bitpush::analyze::FormatReport(first),
            bitpush::analyze::FormatReport(second));
  EXPECT_EQ(bitpush::analyze::FormatWaiverReport(first),
            bitpush::analyze::FormatWaiverReport(second));
}

TEST(AnalyzeTest, MissingRootIsAnIoError) {
  const Result result =
      RunAnalyze(FixturePath("does-not-exist"), Options{});
  EXPECT_TRUE(result.io_error);
  EXPECT_FALSE(result.io_error_message.empty());
}

// The real tree must analyze clean: every genuine finding is either fixed
// or carries a reasoned waiver that this run counts in the budget.
TEST(AnalyzeTest, RealTreeHasNoUnwaivedFindings) {
  const Result result = RunAnalyze(BITPUSH_ANALYZE_SOURCE_ROOT, Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_GT(result.files_scanned, 100);
  EXPECT_GT(result.functions_indexed, 500);
  EXPECT_TRUE(result.findings.empty()) << Pretty(result);
}

}  // namespace
