#include "core/adaptive.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "core/bit_probabilities.h"
#include "util/check.h"

namespace bitpush {

AdaptiveResult RunAdaptiveBitPushing(const std::vector<uint64_t>& codewords,
                                     const AdaptiveConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(config.bits, 1);
  BITPUSH_CHECK_GT(config.delta, 0.0);
  BITPUSH_CHECK_LT(config.delta, 1.0);
  BITPUSH_CHECK_GE(codewords.size(), 2u);

  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.epsilon);
  const int64_t n = static_cast<int64_t>(codewords.size());
  int64_t n1 = static_cast<int64_t>(
      std::llround(config.delta * static_cast<double>(n)));
  n1 = std::clamp<int64_t>(n1, 1, n - 1);

  // Round 1: input-independent geometric probe over a delta fraction.
  AdaptiveResult result;
  result.round1_probabilities =
      GeometricProbabilities(config.bits, config.gamma);
  BitPushingConfig round1_config{
      .probabilities = result.round1_probabilities,
      .epsilon = config.epsilon,
      .bits_per_client = config.bits_per_client,
      .central_randomness = config.central_randomness};
  const std::vector<uint64_t> cohort1(codewords.begin(),
                                      codewords.begin() + n1);
  result.round1 = RunBasicBitPushing(cohort1, round1_config, rng);

  // Learn the round-2 allocation from the probe.
  result.round2_probabilities = LearnRound2Probabilities(
      result.round1.histogram, rr, config, result.round1_probabilities);

  // Round 2 over the remaining clients.
  BitPushingConfig round2_config{
      .probabilities = result.round2_probabilities,
      .epsilon = config.epsilon,
      .bits_per_client = config.bits_per_client,
      .central_randomness = config.central_randomness};
  const std::vector<uint64_t> cohort2(codewords.begin() + n1,
                                      codewords.end());
  result.round2 = RunBasicBitPushing(cohort2, round2_config, rng);

  // Final aggregation (Algorithm 2, lines 9-11).
  PooledEstimate pooled = PoolAdaptiveRounds(
      result.round1.histogram, result.round2.histogram, rr, config);
  result.final_means = std::move(pooled.means);
  result.kept = std::move(pooled.kept);
  result.estimate_codeword = pooled.estimate_codeword;
  const std::vector<int64_t>& final_counts = pooled.counts;

  // Plug-in variance over the kept bits.
  const double rr_var = rr.ReportVariance();
  double variance = 0.0;
  for (size_t j = 0; j < result.final_means.size(); ++j) {
    if (!result.kept[j] || final_counts[j] == 0) continue;
    const double m = std::clamp(result.final_means[j], 0.0, 1.0);
    variance += std::exp2(2.0 * static_cast<double>(j)) *
                (m * (1.0 - m) + rr_var) /
                static_cast<double>(final_counts[j]);
  }
  result.variance_bound = variance;
  return result;
}

std::vector<double> LearnRound2Probabilities(
    const BitHistogram& round1, const RandomizedResponse& rr,
    const AdaptiveConfig& config,
    const std::vector<double>& round1_probabilities) {
  const std::vector<double> round1_means = round1.UnbiasedMeans(rr);
  const std::vector<bool> round1_keep =
      ComputeSquashMask(round1_means, round1.totals, rr, config.squash);
  return AdaptiveProbabilitiesMasked(round1_means, round1_keep, config.alpha,
                                     round1_probabilities);
}

PooledEstimate PoolAdaptiveRounds(const BitHistogram& round1,
                                  const BitHistogram& round2,
                                  const RandomizedResponse& rr,
                                  const AdaptiveConfig& config) {
  PooledEstimate out;
  if (config.caching) {
    BitHistogram pooled = round1;
    pooled.Merge(round2);
    out.means = pooled.UnbiasedMeans(rr);
    out.counts = pooled.totals;
  } else {
    // Round-2-only estimate; bits the learned allocation skipped fall back
    // to their round-1 means (the only information available for them).
    std::vector<bool> observed;
    out.means = round2.UnbiasedMeans(rr, &observed);
    out.counts = round2.totals;
    const std::vector<double> fallback_means = round1.UnbiasedMeans(rr);
    for (size_t j = 0; j < out.means.size(); ++j) {
      if (!observed[j]) {
        out.means[j] = fallback_means[j];
        out.counts[j] = round1.totals[j];
      }
    }
  }
  out.kept = ComputeSquashMask(out.means, out.counts, rr, config.squash);
  out.estimate_codeword = RecombineBitMeans(out.means, out.kept);
  return out;
}

}  // namespace bitpush
