// Cross-module property tests. Universal invariants run on bitprop
// generators (tests/prop/bitprop.h) — seeded domains, shrinking, and
// BITPROP_SEED reproduction — while exact-value identities and statistical
// suites that need a Monte-Carlo grid stay as plain/parameterized gtest.
// The fixed-point codec sweeps that used to live here moved to
// tests/prop/prop_invariants_test.cc, which states them over random widths
// and ranges.

#include <cmath>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "core/bit_squashing.h"
#include "core/fixed_point.h"
#include "core/planner.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "ldp/randomized_response.h"
#include "prop/bitprop.h"
#include "rng/qmc.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

using ::bitpush::prop::CheckProperty;
using ::bitpush::prop::Domain;

// ---------------------------------------------------------------------------
// Randomized response identities across the epsilon range.

class RrEpsilonTest : public ::testing::TestWithParam<double> {};

TEST_P(RrEpsilonTest, UnbiasingIdentityHoldsEmpirically) {
  const double epsilon = GetParam();
  const RandomizedResponse rr(epsilon);
  Rng rng(7);
  for (const int bit : {0, 1}) {
    double sum = 0.0;
    const int trials = 200000;
    for (int i = 0; i < trials; ++i) {
      sum += rr.Unbias(static_cast<double>(rr.Apply(bit, rng)));
    }
    // Standard error of the unbiased mean.
    const double se = std::sqrt(rr.ReportVariance() / trials);
    EXPECT_NEAR(sum / trials, static_cast<double>(bit), 5.0 * se + 1e-9)
        << "eps=" << epsilon << " bit=" << bit;
  }
}

TEST_P(RrEpsilonTest, LikelihoodRatioIsExactlyExpEpsilon) {
  const double epsilon = GetParam();
  const RandomizedResponse rr(epsilon);
  const double p = rr.truth_probability();
  EXPECT_NEAR(std::log(p / (1.0 - p)), epsilon, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Epsilons, RrEpsilonTest,
                         ::testing::Values(0.05, 0.1, 0.5, 1.0, 2.0, 4.0,
                                           8.0));

// ---------------------------------------------------------------------------
// QMC allocation invariants under random allocations.

struct AllocationCase {
  std::vector<double> weights;  // positive; normalized by the property
  int64_t n = 1;
};

Domain<AllocationCase> AllocationDomain() {
  Domain<AllocationCase> domain;
  domain.generate = [](Rng& rng) {
    AllocationCase c;
    c.weights.resize(1 + rng.NextBelow(20));
    for (double& x : c.weights) x = rng.NextDouble() + 1e-3;
    c.n = 1 + static_cast<int64_t>(rng.NextBelow(50000));
    return c;
  };
  domain.shrink = [](const AllocationCase& c) {
    std::vector<AllocationCase> out;
    if (c.weights.size() > 1) {
      AllocationCase smaller = c;
      smaller.weights.resize(c.weights.size() / 2);
      out.push_back(smaller);
    }
    if (c.n > 1) {
      AllocationCase smaller = c;
      smaller.n = c.n / 2;
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const AllocationCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{n=" << c.n << " weights=[";
    for (size_t i = 0; i < c.weights.size(); ++i) {
      if (i > 0) out << ", ";
      out << c.weights[i];
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(QmcAllocationProperty, GroupSizesExactAndWithinOneOfProportional) {
  CheckProperty<AllocationCase>(
      "proportional group sizes stay within one of n * p_j and sum to n",
      AllocationDomain(),
      [](const AllocationCase& c) -> std::optional<std::string> {
        std::vector<double> p = c.weights;
        NormalizeProbabilities(p);
        const std::vector<int64_t> sizes = ProportionalGroupSizes(c.n, p);
        int64_t total = 0;
        for (size_t j = 0; j < p.size(); ++j) {
          const double exact = static_cast<double>(c.n) * p[j];
          if (static_cast<double>(sizes[j]) < std::floor(exact) - 1e-9 ||
              static_cast<double>(sizes[j]) > std::ceil(exact) + 1e-9) {
            std::ostringstream out;
            out << "group " << j << " size " << sizes[j]
                << " outside [floor, ceil] of " << exact;
            return out.str();
          }
          total += sizes[j];
        }
        if (total != c.n) return std::string("group sizes do not sum to n");
        return std::nullopt;
      });
}

// ---------------------------------------------------------------------------
// Protocol invariants across workloads.

struct WorkloadCase {
  const char* label;
  // Builds a dataset of the given size.
  Dataset (*make)(int64_t n, Rng& rng);
};

Dataset MakeUniformWorkload(int64_t n, Rng& rng) {
  return UniformData(n, 0.0, 250.0, rng);
}
Dataset MakeNormalWorkload(int64_t n, Rng& rng) {
  return NormalData(n, 120.0, 40.0, rng);
}
Dataset MakeExponentialWorkload(int64_t n, Rng& rng) {
  return ExponentialData(n, 60.0, rng);
}
Dataset MakeCensusWorkload(int64_t n, Rng& rng) {
  return CensusAges(n, rng);
}
Dataset MakeConstantWorkload(int64_t n, Rng& rng) {
  (void)rng;
  return Dataset("constant",
                 std::vector<double>(static_cast<size_t>(n), 97.0));
}
Dataset MakeBimodalWorkload(int64_t n, Rng& rng) {
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    values.push_back(rng.NextBernoulli(0.5) ? 10.0 : 200.0);
  }
  return Dataset("bimodal", std::move(values));
}

class WorkloadPropertyTest : public ::testing::TestWithParam<WorkloadCase> {
 protected:
  static constexpr int kBits = 8;
  static constexpr int64_t kClients = 4000;
};

TEST_P(WorkloadPropertyTest, EstimateStaysInCodewordDomainWithoutDp) {
  // Without DP noise, every bit mean is in [0, 1], so the recombined
  // estimate must lie in [0, 2^b - 1] regardless of workload/allocation.
  Rng rng(11);
  const Dataset data = GetParam().make(kClients, rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const std::vector<uint64_t> codewords =
      codec.EncodeAll(data.Clipped(0.0, 255.0).values());
  for (const double gamma : {0.0, 0.5, 1.0}) {
    BitPushingConfig config;
    config.probabilities = GeometricProbabilities(kBits, gamma);
    const BitPushingResult result =
        RunBasicBitPushing(codewords, config, rng);
    EXPECT_GE(result.estimate_codeword, 0.0);
    EXPECT_LE(result.estimate_codeword,
              static_cast<double>(codec.max_codeword()));
  }
}

TEST_P(WorkloadPropertyTest, BasicAndAdaptiveAgreeWithTruth) {
  Rng rng(13);
  const Dataset raw = GetParam().make(kClients, rng);
  const Dataset data = raw.Clipped(0.0, 255.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());
  const double truth = data.truth().mean;

  AdaptiveConfig adaptive;
  adaptive.bits = kBits;
  const ErrorStats stats = RunRepetitions(50, 17, truth, [&](Rng& run) {
    return codec.Decode(
        RunAdaptiveBitPushing(codewords, adaptive, run).estimate_codeword);
  });
  // 4000 clients on an 8-bit domain: comfortably within 10% of truth
  // (constant data is exact; scale by truth or resolution).
  const double slack = std::max(0.1 * std::abs(truth), 2.0);
  EXPECT_LT(std::abs(stats.bias) + stats.rmse, slack + 1e-9)
      << GetParam().label;
}

TEST_P(WorkloadPropertyTest, VarianceBoundIsAnUpperEnvelope) {
  Rng rng(19);
  const Dataset data = GetParam().make(kClients, rng).Clipped(0.0, 255.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(kBits);
  const std::vector<uint64_t> codewords = codec.EncodeAll(data.values());
  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(kBits, 1.0);

  Rng probe(23);
  const double bound =
      RunBasicBitPushing(codewords, config, probe).variance_bound;
  const std::vector<double> estimates =
      CollectRepetitions(300, 29, [&](Rng& run) {
        return RunBasicBitPushing(codewords, config, run)
            .estimate_codeword;
      });
  // Without-replacement sampling only shrinks variance, so the plug-in
  // bound (evaluated at estimated means) must cover the empirical value
  // up to estimation noise.
  EXPECT_LT(PopulationVariance(estimates), 1.5 * bound + 1e-9)
      << GetParam().label;
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, WorkloadPropertyTest,
    ::testing::Values(WorkloadCase{"uniform", MakeUniformWorkload},
                      WorkloadCase{"normal", MakeNormalWorkload},
                      WorkloadCase{"exponential", MakeExponentialWorkload},
                      WorkloadCase{"census", MakeCensusWorkload},
                      WorkloadCase{"constant", MakeConstantWorkload},
                      WorkloadCase{"bimodal", MakeBimodalWorkload}),
    [](const ::testing::TestParamInfo<WorkloadCase>& info) {
      return std::string(info.param.label);
    });

// ---------------------------------------------------------------------------
// Structural invariants.

struct MergeOp {
  int bit_index = 0;
  int bit = 0;
  bool to_left = false;
};

struct HistogramMergeCase {
  int bits = 1;
  std::vector<MergeOp> ops;
};

Domain<HistogramMergeCase> HistogramMergeDomain() {
  Domain<HistogramMergeCase> domain;
  domain.generate = [](Rng& rng) {
    HistogramMergeCase c;
    c.bits = 1 + static_cast<int>(rng.NextBelow(16));
    c.ops.resize(1 + rng.NextBelow(500));
    for (MergeOp& op : c.ops) {
      op.bit_index =
          static_cast<int>(rng.NextBelow(static_cast<uint64_t>(c.bits)));
      op.bit = rng.NextBit();
      op.to_left = rng.NextBernoulli(0.5);
    }
    return c;
  };
  domain.shrink = [](const HistogramMergeCase& c) {
    std::vector<HistogramMergeCase> out;
    if (c.ops.size() > 1) {
      HistogramMergeCase smaller = c;
      smaller.ops.resize(c.ops.size() / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const HistogramMergeCase& c) {
    std::ostringstream out;
    out << "{bits=" << c.bits << " ops=[";
    for (size_t i = 0; i < c.ops.size(); ++i) {
      if (i > 0) out << " ";
      out << c.ops[i].bit_index << ":" << c.ops[i].bit
          << (c.ops[i].to_left ? "L" : "R");
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(HistogramMergeProperty, MergeEqualsConcatenatedAdds) {
  CheckProperty<HistogramMergeCase>(
      "merging split halves reproduces the concatenated histogram",
      HistogramMergeDomain(),
      [](const HistogramMergeCase& c) -> std::optional<std::string> {
        BitHistogram merged(c.bits);
        BitHistogram left(c.bits);
        BitHistogram right(c.bits);
        BitHistogram all(c.bits);
        for (const MergeOp& op : c.ops) {
          all.Add(op.bit_index, op.bit);
          (op.to_left ? left : right).Add(op.bit_index, op.bit);
        }
        merged.Merge(left);
        merged.Merge(right);
        if (merged.totals() != all.totals()) {
          return std::string("merged totals differ from concatenated adds");
        }
        if (merged.one_counts() != all.one_counts()) {
          return std::string(
              "merged one-counts differ from concatenated adds");
        }
        return std::nullopt;
      });
}

struct RecombineCase {
  std::vector<double> a;
  std::vector<double> b;  // same length as a
};

Domain<RecombineCase> RecombineDomain() {
  Domain<RecombineCase> domain;
  domain.generate = [](Rng& rng) {
    RecombineCase c;
    const size_t bits = 1 + rng.NextBelow(20);
    c.a.resize(bits);
    c.b.resize(bits);
    for (size_t j = 0; j < bits; ++j) {
      c.a[j] = rng.NextDouble();
      c.b[j] = rng.NextDouble();
    }
    return c;
  };
  domain.shrink = [](const RecombineCase& c) {
    std::vector<RecombineCase> out;
    if (c.a.size() > 1) {
      RecombineCase smaller = c;
      smaller.a.resize(c.a.size() / 2);
      smaller.b.resize(c.a.size() / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const RecombineCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{a=[";
    for (size_t j = 0; j < c.a.size(); ++j) {
      if (j > 0) out << ", ";
      out << c.a[j];
    }
    out << "] b=[";
    for (size_t j = 0; j < c.b.size(); ++j) {
      if (j > 0) out << ", ";
      out << c.b[j];
    }
    out << "]}";
    return out.str();
  };
  return domain;
}

TEST(RecombineProperty, LinearInBitMeans) {
  CheckProperty<RecombineCase>(
      "recombination is linear in the bit means", RecombineDomain(),
      [](const RecombineCase& c) -> std::optional<std::string> {
        std::vector<double> sum(c.a.size());
        for (size_t j = 0; j < c.a.size(); ++j) sum[j] = c.a[j] + c.b[j];
        const double joint = RecombineBitMeans(sum);
        const double split = RecombineBitMeans(c.a) + RecombineBitMeans(c.b);
        if (std::abs(joint - split) > 1e-6) {
          std::ostringstream out;
          out.precision(17);
          out << "recombine(a + b) = " << joint
              << " but recombine(a) + recombine(b) = " << split;
          return out.str();
        }
        return std::nullopt;
      });
}

struct SquashCase {
  std::vector<double> means;    // includes noisy values outside [0, 1]
  std::vector<int64_t> counts;  // same length as means
};

Domain<SquashCase> SquashDomain() {
  Domain<SquashCase> domain;
  domain.generate = [](Rng& rng) {
    SquashCase c;
    const size_t bits = 1 + rng.NextBelow(16);
    c.means.resize(bits);
    c.counts.resize(bits);
    for (size_t j = 0; j < bits; ++j) {
      c.means[j] = 2.0 * rng.NextDouble() - 0.5;
      c.counts[j] = static_cast<int64_t>(rng.NextBelow(100));
    }
    return c;
  };
  domain.shrink = [](const SquashCase& c) {
    std::vector<SquashCase> out;
    if (c.means.size() > 1) {
      SquashCase smaller = c;
      smaller.means.resize(c.means.size() / 2);
      smaller.counts.resize(c.means.size() / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const SquashCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{";
    for (size_t j = 0; j < c.means.size(); ++j) {
      if (j > 0) out << " ";
      out << c.means[j] << "/" << c.counts[j];
    }
    out << "}";
    return out.str();
  };
  return domain;
}

TEST(SquashMonotoneProperty, HigherThresholdSquashesSuperset) {
  CheckProperty<SquashCase>(
      "anything squashed at a low threshold stays squashed at a higher one",
      SquashDomain(), [](const SquashCase& c) -> std::optional<std::string> {
        const RandomizedResponse rr(1.0);
        const std::vector<bool> low = ComputeSquashMask(
            c.means, c.counts, rr, SquashPolicy::Absolute(0.05));
        const std::vector<bool> high = ComputeSquashMask(
            c.means, c.counts, rr, SquashPolicy::Absolute(0.2));
        for (size_t j = 0; j < c.means.size(); ++j) {
          if (!low[j] && high[j]) {
            std::ostringstream out;
            out << "bit " << j
                << " kept at threshold 0.05 but squashed at 0.2";
            return out.str();
          }
        }
        return std::nullopt;
      });
}

TEST(PlannerMonotoneProperty, StricterSettingsNeedMoreClients) {
  const std::vector<double> p = GeometricProbabilities(8, 1.0);
  int64_t previous = 0;
  // Monotone in the accuracy target.
  for (const double target : {0.5, 0.2, 0.1, 0.05, 0.02, 0.01}) {
    const int64_t required =
        PlanForStdError(p, {}, 0.0, target).required_clients;
    EXPECT_GE(required, previous);
    previous = required;
  }
  // Monotone in epsilon (smaller epsilon -> more noise -> more clients).
  previous = 0;
  for (const double epsilon : {4.0, 2.0, 1.0, 0.5, 0.25}) {
    const int64_t required =
        PlanForStdError(p, {}, epsilon, 1.0).required_clients;
    EXPECT_GE(required, previous);
    previous = required;
  }
}

struct GeometricCase {
  int bits = 2;
  double gamma = 0.0;
};

Domain<GeometricCase> GeometricDomain() {
  Domain<GeometricCase> domain;
  domain.generate = [](Rng& rng) {
    GeometricCase c;
    c.bits = 2 + static_cast<int>(rng.NextBelow(30));
    c.gamma = rng.NextDouble() * 2.0;
    return c;
  };
  domain.shrink = [](const GeometricCase& c) {
    std::vector<GeometricCase> out;
    if (c.bits > 2) out.push_back({2, c.gamma});
    if (c.gamma != 0.0) out.push_back({c.bits, 0.0});
    return out;
  };
  domain.describe = [](const GeometricCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{bits=" << c.bits << " gamma=" << c.gamma << "}";
    return out.str();
  };
  return domain;
}

TEST(GeometricAllocationProperty, MassOrderedByBitSignificance) {
  CheckProperty<GeometricCase>(
      "geometric allocation puts non-decreasing mass on higher bits",
      GeometricDomain(),
      [](const GeometricCase& c) -> std::optional<std::string> {
        const std::vector<double> p =
            GeometricProbabilities(c.bits, c.gamma);
        for (size_t j = 1; j < p.size(); ++j) {
          if (p[j] < p[j - 1] - 1e-15) {
            std::ostringstream out;
            out.precision(17);
            out << "p[" << j << "]=" << p[j] << " < p[" << j - 1
                << "]=" << p[j - 1];
            return out.str();
          }
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace bitpush
