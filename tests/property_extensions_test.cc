// Property tests for the extension modules: derived aggregates, weighted
// means, the wire format, and memoization. Universal invariants (wire
// round-trips) run on bitprop generators with shrinking; the statistical
// suites that need a fixed Monte-Carlo grid stay parameterized gtest.

// bitpush-lint: allow(privacy-metering): property sweeps build synthetic reports; no client value is behind them

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "core/histogram_estimation.h"
#include "core/moments.h"
#include "core/proportion.h"
#include "core/range_tree.h"
#include "core/weighted.h"
#include "data/synthetic.h"
#include "federated/wire.h"
#include "ldp/memoization.h"
#include "prop/bitprop.h"
#include "rng/rng.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

using ::bitpush::prop::CheckProperty;
using ::bitpush::prop::Domain;

// ---------------------------------------------------------------------------
// Histogram / range-tree mass conservation across bucketings.

class HistogramBucketsTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramBucketsTest, MassSumsToOneForAnyBucketCount) {
  const int buckets = GetParam();
  Rng rng(100 + static_cast<uint64_t>(buckets));
  const Dataset data = UniformData(40000, 0.0, 100.0, rng);
  HistogramConfig config;
  config.edges = UniformEdges(0.0, 100.0, buckets);
  const HistogramResult result =
      EstimateHistogram(data.values(), config, rng);
  double total = 0.0;
  for (const double f : result.fractions) total += f;
  EXPECT_NEAR(total, 1.0, 0.06) << buckets << " buckets";
}

INSTANTIATE_TEST_SUITE_P(BucketCounts, HistogramBucketsTest,
                         ::testing::Values(1, 2, 3, 5, 8, 16, 33, 64));

class RangeTreeLevelsTest : public ::testing::TestWithParam<int> {};

TEST_P(RangeTreeLevelsTest, EveryLevelConservesTotalMass) {
  const int levels = GetParam();
  Rng rng(200 + static_cast<uint64_t>(levels));
  std::vector<uint64_t> codewords(60000);
  const uint64_t domain = uint64_t{1} << levels;
  for (uint64_t& c : codewords) c = rng.NextBelow(domain);
  const RangeTreeResult tree = EstimateRangeTree(
      codewords, RangeTreeConfig{levels, 0.0}, rng);
  for (int level = 1; level <= levels; ++level) {
    double total = 0.0;
    for (uint64_t v = 0; v < (uint64_t{1} << level); ++v) {
      total += tree.NodeFraction(level, v);
    }
    // The level's total is a sum of 2^L independent cell means, each from
    // ~n/(levels * 2^L) reports: stddev ~= sqrt(levels * 2^L / n). Allow
    // 4 sigma.
    const double sigma =
        std::sqrt(static_cast<double>(levels) *
                  std::exp2(level) / static_cast<double>(codewords.size()));
    EXPECT_NEAR(total, 1.0, 4.0 * sigma + 0.02) << "level " << level;
  }
}

TEST_P(RangeTreeLevelsTest, DisjointRangesAddUp) {
  const int levels = GetParam();
  Rng rng(300 + static_cast<uint64_t>(levels));
  const uint64_t domain = uint64_t{1} << levels;
  std::vector<uint64_t> codewords(60000);
  for (uint64_t& c : codewords) c = rng.NextBelow(domain);
  const RangeTreeResult tree = EstimateRangeTree(
      codewords, RangeTreeConfig{levels, 0.0}, rng);
  const uint64_t mid = domain / 2;
  const double left = tree.RangeFraction(0, mid - 1);
  const double right = tree.RangeFraction(mid, domain - 1);
  EXPECT_NEAR(left + right, 1.0, 0.08);
}

INSTANTIATE_TEST_SUITE_P(Depths, RangeTreeLevelsTest,
                         ::testing::Values(2, 4, 6, 9));

// ---------------------------------------------------------------------------
// Moments: consistency between derived aggregates.

TEST(MomentConsistencyProperty, FirstMomentMatchesProportionWeighting) {
  // E[X], the weighted mean with unit weights, and the moment-1 estimator
  // must agree on the same data within noise.
  Rng rng(400);
  const Dataset data = UniformData(30000, 0.0, 120.0, rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  MomentConfig moment_config;
  moment_config.protocol.bits = 7;
  const double via_moment = EstimateRawMoment(data.values(), codec, 1,
                                              moment_config, rng);
  std::vector<WeightedValue> weighted;
  for (const double v : data.values()) {
    weighted.push_back(WeightedValue{v, 1.0});
  }
  WeightedMeanConfig weighted_config;
  weighted_config.probabilities = GeometricProbabilities(7, 0.5);
  const double via_weighted =
      EstimateWeightedMean(weighted, codec, weighted_config, rng).estimate;
  EXPECT_NEAR(via_moment, via_weighted, 0.1 * data.truth().mean);
}

TEST(MomentConsistencyProperty, JensenOrderingHolds) {
  // For positive data: geometric mean <= arithmetic mean, and
  // E[X^2] >= E[X]^2, across several workloads.
  Rng rng(500);
  for (int trial = 0; trial < 3; ++trial) {
    const Dataset data = LognormalData(30000, 2.5, 0.6, rng);
    const Dataset clipped = data.Clipped(1.0, 1023.0);
    const FixedPointCodec codec = FixedPointCodec::Integer(10);
    MomentConfig config;
    config.protocol.bits = 10;
    const double mean =
        EstimateRawMoment(clipped.values(), codec, 1, config, rng);
    const double second =
        EstimateRawMoment(clipped.values(), codec, 2, config, rng);
    const double geometric = EstimateGeometricMean(
        clipped.values(), codec, 1.0, 12, config, rng);
    EXPECT_LT(geometric, mean * 1.05);
    EXPECT_GT(second, mean * mean * 0.9);
  }
}

// ---------------------------------------------------------------------------
// Wire format: encode/decode round-trips over random valid messages.

Domain<BitReport> BitReportDomain() {
  Domain<BitReport> domain;
  domain.generate = [](Rng& rng) {
    return BitReport{static_cast<int64_t>(rng.NextUint64() >> 1),
                     static_cast<int>(rng.NextBelow(256)),
                     static_cast<int>(rng.NextBelow(2))};
  };
  domain.shrink = [](const BitReport& r) {
    std::vector<BitReport> out;
    if (r.client_id > 0) out.push_back({r.client_id / 2, r.bit_index, r.bit});
    if (r.bit_index > 0) out.push_back({r.client_id, 0, r.bit});
    if (r.bit != 0) out.push_back({r.client_id, r.bit_index, 0});
    return out;
  };
  domain.describe = [](const BitReport& r) {
    std::ostringstream out;
    out << "{client_id=" << r.client_id << " bit_index=" << r.bit_index
        << " bit=" << r.bit << "}";
    return out.str();
  };
  return domain;
}

TEST(WireRoundTripProperty, RandomMessagesSurvive) {
  CheckProperty<BitReport>(
      "a single report survives encode/decode field-for-field",
      BitReportDomain(),
      [](const BitReport& report) -> std::optional<std::string> {
        std::vector<uint8_t> buffer;
        EncodeBitReport(report, &buffer);
        size_t offset = 0;
        BitReport decoded;
        if (!DecodeBitReport(buffer, &offset, &decoded)) {
          return std::string("decode failed on a freshly encoded report");
        }
        if (decoded.client_id != report.client_id ||
            decoded.bit_index != report.bit_index ||
            decoded.bit != report.bit) {
          return std::string("decoded fields differ from the original");
        }
        return std::nullopt;
      });
}

TEST(WireRoundTripProperty, RandomBatchesSurvive) {
  CheckProperty<std::vector<BitReport>>(
      "a report batch survives encode/decode element-for-element",
      prop::VectorOf(BitReportDomain(), 0, 64),
      [](const std::vector<BitReport>& reports)
          -> std::optional<std::string> {
        std::vector<uint8_t> buffer;
        EncodeReportBatch(reports, &buffer);
        std::vector<BitReport> decoded;
        if (!DecodeReportBatch(buffer, &decoded)) {
          return std::string("decode failed on a freshly encoded batch");
        }
        if (decoded.size() != reports.size()) {
          return std::string("decoded batch size differs");
        }
        for (size_t i = 0; i < reports.size(); ++i) {
          if (decoded[i].client_id != reports[i].client_id ||
              decoded[i].bit_index != reports[i].bit_index ||
              decoded[i].bit != reports[i].bit) {
            std::ostringstream out;
            out << "batch element " << i << " differs after round-trip";
            return out.str();
          }
        }
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Memoization: determinism and unbiasedness across epsilon grids.

class MemoizationGridTest : public ::testing::TestWithParam<double> {};

TEST_P(MemoizationGridTest, PermanentLayerDeterministicAndUnbiased) {
  const double epsilon = GetParam();
  // Determinism per client.
  const MemoizedResponder one(epsilon, 0.0, 42);
  EXPECT_EQ(one.PermanentBit(3, 2, 1), one.PermanentBit(3, 2, 1));
  // Across clients, the permanent bits of a fixed true bit average to the
  // RR expectation p (for true bit 1).
  const RandomizedResponse rr(epsilon);
  Welford acc;
  for (uint64_t secret = 0; secret < 20000; ++secret) {
    const MemoizedResponder responder(epsilon, 0.0, secret * 2654435761u);
    acc.Add(static_cast<double>(responder.PermanentBit(0, 0, 1)));
  }
  EXPECT_NEAR(acc.mean(), rr.truth_probability(), 0.02) << epsilon;
}

INSTANTIATE_TEST_SUITE_P(Epsilons, MemoizationGridTest,
                         ::testing::Values(0.25, 0.5, 1.0, 2.0, 4.0));

// ---------------------------------------------------------------------------
// Proportion: agreement with the histogram on the same cut.

TEST(ProportionConsistencyProperty, MatchesHistogramMass) {
  Rng rng(900);
  const Dataset data = UniformData(50000, 0.0, 100.0, rng);
  const ProportionResult proportion =
      EstimateRangeProportion(data.values(), 0.0, 49.999, 0.0, rng);
  HistogramConfig config;
  config.edges = UniformEdges(0.0, 100.0, 2);
  const HistogramResult histogram =
      EstimateHistogram(data.values(), config, rng);
  EXPECT_NEAR(proportion.fraction, histogram.fractions[0], 0.03);
}

}  // namespace
}  // namespace bitpush
