// Validates bitpush_lint against the fixture trees under
// tests/golden/lint/. Each tree is a miniature lint root:
//
//   bad/      every check family fires a known number of times, the
//             waivers present suppress exactly what they claim to, and a
//             waiver that suppresses nothing is flagged.
//   good/     a fully compliant tree (including one budgeted waiver)
//             produces zero findings.
//   fixmode/  mechanically repairable problems; copied to a temp dir and
//             run through --fix, which must leave the copy clean.
//   calls/    one case per rule of the unreached-function walk.
//
// Each tree has a driver under examples/, which lint reads only for the
// include graph and the identifiers the two reachability checks walk.
//
// A final case lints the real repository tree, so `ctest` itself fails if
// an invariant violation lands without a waiver.

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bitpush_lint/lint.h"

namespace bitpush::lint {
namespace {

namespace fs = std::filesystem;

std::string FixtureRoot(const std::string& tree) {
  return std::string(BITPUSH_LINT_FIXTURE_DIR) + "/" + tree;
}

std::map<Check, int> CountByCheck(const Result& result) {
  std::map<Check, int> counts;
  for (const Finding& finding : result.findings) ++counts[finding.check];
  return counts;
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(LintTest, BadTreeFiresEveryCheckFamily) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_EQ(result.files_scanned, 21);

  const std::map<Check, int> counts = CountByCheck(result);
  EXPECT_EQ(counts.at(Check::kDeterminism), 5)
      << FormatReport(result);  // one per banned construct line
  EXPECT_EQ(counts.at(Check::kPrivacyMetering), 3) << FormatReport(result);
  EXPECT_EQ(counts.at(Check::kObsStability), 3) << FormatReport(result);
  EXPECT_EQ(counts.at(Check::kHeaderHygiene), 4) << FormatReport(result);
  // 5 from journal.h's kGhost, 6 from the shard merge.h fixture (encoder
  // without decoder, uncovered message, unreferenced + uncovered kTick,
  // version constant unreferenced + uncovered).
  EXPECT_EQ(counts.at(Check::kWireExhaustiveness), 11)
      << FormatReport(result);
  // Three malformed waivers and one stale one.
  EXPECT_EQ(counts.at(Check::kWaiverSyntax), 4) << FormatReport(result);
  EXPECT_EQ(counts.at(Check::kUnreachedModule), 2) << FormatReport(result);
  // OrphanValue, in the unreached module.
  EXPECT_EQ(counts.at(Check::kUnreachedFunction), 1) << FormatReport(result);
  EXPECT_EQ(result.findings.size(), 33u) << FormatReport(result);
}

TEST(LintTest, BadTreeFlagsOnlyItsUnreachedModule) {
  Options options;
  options.checks = {Check::kUnreachedModule};
  const Result result = RunLint(FixtureRoot("bad"), options);
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  // orphan.h is included only by a test, and orphan.cc includes a reached
  // header; neither reaches them. The driver under examples/ reaches every
  // other src/ file, and is neither scanned nor linted by the other checks
  // (its std::rand call raises no determinism finding).
  std::vector<std::string> paths;
  for (const Finding& finding : result.findings) {
    if (finding.check == Check::kWaiverSyntax) continue;  // always enabled
    EXPECT_EQ(finding.check, Check::kUnreachedModule);
    paths.push_back(finding.path);
  }
  EXPECT_EQ(paths, (std::vector<std::string>{"src/core/orphan.cc",
                                             "src/core/orphan.h"}))
      << FormatReport(result);
  EXPECT_EQ(result.files_scanned, 21);
}

TEST(LintTest, ShardLayerMeteringRulesFireAndComply) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;

  // A shard TU that discloses bits without touching the shard-local meter,
  // and a merge-tier TU that charges a meter (cross-shard double
  // metering), each fire exactly once.
  int unmetered_shard = 0;
  int merge_charges = 0;
  for (const Finding& finding : result.findings) {
    if (finding.check != Check::kPrivacyMetering) continue;
    if (finding.path == "src/federated/shard/unmetered_shard.cc") {
      ++unmetered_shard;
      EXPECT_NE(finding.message.find("local_meter"), std::string::npos);
    }
    if (finding.path == "src/federated/shard/merge_meter.cc") {
      ++merge_charges;
      EXPECT_NE(finding.message.find("double-meters"), std::string::npos);
    }
  }
  EXPECT_EQ(unmetered_shard, 1) << FormatReport(result);
  EXPECT_EQ(merge_charges, 1) << FormatReport(result);
  // The good tree's metered_shard.cc (disclosure charged through
  // local_meter) stays silent; GoodTreeIsClean covers it.
}

TEST(LintTest, BadTreeConfinesIntrinsicsHeadersToKernels) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  int intrinsics_findings = 0;
  for (const Finding& finding : result.findings) {
    if (finding.message.find("immintrin.h") == std::string::npos) continue;
    ++intrinsics_findings;
    EXPECT_EQ(finding.path, "src/core/intrinsics_bad.cc");
    EXPECT_EQ(finding.check, Check::kHeaderHygiene);
  }
  // One finding on the stray include; the good tree's src/kernels/lanes.cc
  // shows the sanctioned placement staying silent.
  EXPECT_EQ(intrinsics_findings, 1) << FormatReport(result);
}

TEST(LintTest, BadTreeWaiversSuppressAndEnterTheBudget) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;

  // The three well-formed waivers (file-scoped privacy-metering,
  // line-scoped determinism, and the stale header-hygiene one) are
  // budgeted; the three malformed ones are not.
  ASSERT_EQ(result.waivers.size(), 3u) << FormatWaiverReport(result);
  for (const Finding& finding : result.findings) {
    // privacy_waived.cc is fully covered by its file-scoped waiver, and
    // timer_waived.cc's wall-clock read is covered by its line waiver (its
    // kStable registration is not, but that is an obs-stability finding).
    if (finding.path == "src/core/privacy_waived.cc") {
      FAIL() << "waived file still reported: " << FormatReport(result);
    }
    if (finding.path == "src/core/timer_waived.cc") {
      EXPECT_EQ(finding.check, Check::kObsStability) << FormatReport(result);
    }
  }
  const std::string waiver_report = FormatWaiverReport(result);
  EXPECT_NE(waiver_report.find("allow(privacy-metering)"), std::string::npos);
  EXPECT_NE(waiver_report.find("allow(determinism)"), std::string::npos);
}

TEST(LintTest, StaleWaiverIsFlaggedOnlyWhenItsCheckRan) {
  // stale_waiver.cc's header-hygiene waiver suppresses nothing: a run of
  // every check, or of header-hygiene, flags it under waiver-syntax.
  for (const std::vector<Check>& checks :
       {std::vector<Check>{}, std::vector<Check>{Check::kHeaderHygiene}}) {
    Options options;
    options.checks = checks;
    const Result result = RunLint(FixtureRoot("bad"), options);
    ASSERT_FALSE(result.io_error) << result.io_error_message;
    int stale = 0;
    for (const Finding& finding : result.findings) {
      if (finding.message.find("suppresses no finding") == std::string::npos) {
        continue;
      }
      ++stale;
      EXPECT_EQ(finding.check, Check::kWaiverSyntax);
      EXPECT_EQ(finding.path, "src/core/stale_waiver.cc");
      EXPECT_EQ(finding.line, 8);
    }
    EXPECT_EQ(stale, 1) << FormatReport(result);
  }
  // A run that leaves header-hygiene out does not judge the waiver.
  Options determinism_only;
  determinism_only.checks = {Check::kDeterminism};
  const Result result = RunLint(FixtureRoot("bad"), determinism_only);
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_EQ(FormatReport(result).find("suppresses no finding"),
            std::string::npos)
      << FormatReport(result);
}

TEST(LintTest, CallsTreePinsTheWalkRules) {
  Options options;
  options.checks = {Check::kUnreachedFunction};
  const Result result = RunLint(FixtureRoot("calls"), options);
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  // Flagged: an orphan (Orphan), a function only a test calls (TestOnly),
  // a function only another orphan calls (ChainTail, and ChainHead
  // itself), and a const member that is not a one-statement accessor and
  // only a test calls (Twice). Not flagged: b::Shared (a name collision
  // with a::Shared), Seed (a constructor init list), CheckStream and Fail
  // (a #define body), Increment and Decrement (named in an initializer),
  // Square::Area (an override of a reached name), the in-class accessor
  // weight that only a test calls, and the waived Reference.
  std::vector<std::string> flagged;
  for (const Finding& finding : result.findings) {
    EXPECT_EQ(finding.check, Check::kUnreachedFunction)
        << FormatReport(result);
    const size_t open = finding.message.find('`');
    const size_t close = finding.message.find('`', open + 1);
    flagged.push_back(finding.message.substr(open + 1, close - open - 1));
  }
  EXPECT_EQ(flagged, (std::vector<std::string>{"ChainTail", "Orphan",
                                               "ChainHead", "TestOnly",
                                               "Twice"}))
      << FormatReport(result);
  EXPECT_EQ(result.waivers.size(), 1u) << FormatWaiverReport(result);
  EXPECT_EQ(result.files_scanned, 3);
}

TEST(LintTest, BadTreeWireFindingsNameTheGhostRecord) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  int ghost_findings = 0;
  for (const Finding& finding : result.findings) {
    if (finding.check != Check::kWireExhaustiveness) continue;
    if (finding.path != "src/persist/journal.h") continue;
    if (finding.message.find("Ghost") != std::string::npos) ++ghost_findings;
  }
  // kGhost breaks all five wire rules between the enumerator and the
  // orphaned EncodeGhostRecord declaration; kCovered breaks none.
  EXPECT_EQ(ghost_findings, 5) << FormatReport(result);
}

TEST(LintTest, BadTreeShardWireHeaderFiresAllSixNewRules) {
  const Result result = RunLint(FixtureRoot("bad"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  int merge_findings = 0;
  for (const Finding& finding : result.findings) {
    if (finding.path != "src/federated/shard/merge.h") continue;
    EXPECT_EQ(finding.check, Check::kWireExhaustiveness);
    ++merge_findings;
    // The nested Mini::Inner enum is a negative control: harvesting it
    // would be a depth-tracking regression.
    EXPECT_EQ(finding.message.find("kNope"), std::string::npos)
        << finding.message;
    EXPECT_EQ(finding.message.find("Inner"), std::string::npos)
        << finding.message;
  }
  EXPECT_EQ(merge_findings, 6) << FormatReport(result);

  const std::string report = FormatReport(result);
  EXPECT_NE(report.find("EncodeMiniFrame has no matching DecodeMiniFrame"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("wire-section version constant kMiniSectionVersion "
                        "is never referenced"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("wire-section version constant kMiniSectionVersion "
                        "is never exercised"),
            std::string::npos)
      << report;
  EXPECT_NE(report.find("enumerator MiniKind::kTick is never referenced"),
            std::string::npos)
      << report;
}

TEST(LintTest, ChecksFilterRestrictsFamiliesButNotWaiverSyntax) {
  Options options;
  options.checks = {Check::kDeterminism};
  const Result result = RunLint(FixtureRoot("bad"), options);
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  const std::map<Check, int> counts = CountByCheck(result);
  EXPECT_EQ(counts.at(Check::kDeterminism), 5);
  EXPECT_EQ(counts.at(Check::kWaiverSyntax), 3);  // always enabled
  EXPECT_EQ(result.findings.size(), 8u) << FormatReport(result);
}

TEST(LintTest, GoodTreeIsCleanWithOneBudgetedWaiver) {
  const Result result = RunLint(FixtureRoot("good"), Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_TRUE(result.findings.empty()) << FormatReport(result);
  EXPECT_EQ(result.waivers.size(), 1u) << FormatWaiverReport(result);
  EXPECT_EQ(result.files_scanned, 9);
}

TEST(LintTest, FixModeRepairsGuardsAndNormalizesWaivers) {
  const fs::path temp =
      fs::path(::testing::TempDir()) / "bitpush_lint_fixmode";
  fs::remove_all(temp);
  fs::copy(FixtureRoot("fixmode"), temp, fs::copy_options::recursive);

  // Pre-fix: a wrong guard, a malformed waiver, and the wall-clock read
  // the waiver fails to suppress.
  const Result before = RunLint(temp.string(), Options{});
  ASSERT_FALSE(before.io_error) << before.io_error_message;
  const std::map<Check, int> counts = CountByCheck(before);
  EXPECT_EQ(counts.at(Check::kHeaderHygiene), 1) << FormatReport(before);
  EXPECT_EQ(counts.at(Check::kWaiverSyntax), 1) << FormatReport(before);
  EXPECT_EQ(counts.at(Check::kDeterminism), 1) << FormatReport(before);

  Options fix_options;
  fix_options.fix = true;
  const Result fixed = RunLint(temp.string(), fix_options);
  ASSERT_FALSE(fixed.io_error) << fixed.io_error_message;
  EXPECT_EQ(fixed.fixed_paths.size(), 2u) << FormatReport(fixed);
  EXPECT_TRUE(fixed.findings.empty()) << FormatReport(fixed);
  EXPECT_EQ(fixed.waivers.size(), 1u) << FormatWaiverReport(fixed);

  const std::string header = ReadFile(temp / "src/core/fix_guard.h");
  EXPECT_NE(header.find("#ifndef BITPUSH_CORE_FIX_GUARD_H_"),
            std::string::npos)
      << header;
  EXPECT_NE(header.find("#endif  // BITPUSH_CORE_FIX_GUARD_H_"),
            std::string::npos)
      << header;
  const std::string waived = ReadFile(temp / "src/core/sloppy_waiver.cc");
  EXPECT_NE(
      waived.find(
          "// bitpush-lint: allow(determinism): fixture exercises waiver "
          "normalization"),
      std::string::npos)
      << waived;

  // Idempotence: a second fix pass changes nothing.
  const Result again = RunLint(temp.string(), fix_options);
  ASSERT_FALSE(again.io_error) << again.io_error_message;
  EXPECT_TRUE(again.fixed_paths.empty()) << FormatReport(again);
  fs::remove_all(temp);
}

TEST(LintTest, MissingRootIsAnIoErrorNotACrash) {
  const Result result = RunLint(FixtureRoot("does_not_exist"), Options{});
  EXPECT_TRUE(result.io_error);
  EXPECT_FALSE(result.io_error_message.empty());
}

// The real tree must stay lint-clean: this is the same gate as the lint
// stage of scripts/check.sh, enforced here so a plain `ctest` run catches
// an unwaived invariant violation too.
TEST(LintTest, RealTreeHasNoUnwaivedViolations) {
  const Result result = RunLint(BITPUSH_LINT_SOURCE_ROOT, Options{});
  ASSERT_FALSE(result.io_error) << result.io_error_message;
  EXPECT_TRUE(result.findings.empty()) << FormatReport(result);
  EXPECT_GT(result.files_scanned, 100) << "lint walked a truncated tree";
}

}  // namespace
}  // namespace bitpush::lint
