#include "federated/debugging.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bitpush {
namespace {

// Tolerance for calling a bit mean 0 or 1.
constexpr double kConstantTolerance = 0.005;
// A bit is "informative" when its mean clears this floor (and, under DP,
// the per-bit noise floor).
constexpr double kInformativeThreshold = 0.02;
// Multiplier on the per-bit DP noise stddev for the noise floor.
constexpr double kNoiseMultiplier = 3.0;
// Top-bit mean above this flags saturation.
constexpr double kSaturationThreshold = 0.9;

}  // namespace

DistributionDiagnostics DiagnoseDistribution(const BitHistogram& histogram,
                                             double epsilon) {
  BITPUSH_CHECK_GE(histogram.bits(), 1);
  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(epsilon);
  std::vector<bool> observed;
  const std::vector<double> means = histogram.UnbiasedMeans(rr, &observed);

  DistributionDiagnostics diagnostics;
  bool all_constant = true;
  bool all_zero = true;
  bool any_informative = false;
  int observed_bits = 0;
  int vacuous = 0;
  for (int j = 0; j < histogram.bits(); ++j) {
    const size_t index = static_cast<size_t>(j);
    if (!observed[index]) {
      ++vacuous;  // never sampled: carries nothing this round
      continue;
    }
    ++observed_bits;
    const double m = means[index];
    // Per-bit noise floor: estimation noise plus DP noise on this bit's
    // mean estimate.
    const double noise_floor =
        kNoiseMultiplier *
        std::sqrt((0.25 + rr.ReportVariance()) /
                  static_cast<double>(histogram.totals[index]));
    const double floor = std::max(kInformativeThreshold,
                                  rr.enabled() ? noise_floor : 0.0);
    const bool informative = m >= floor;
    if (informative) {
      any_informative = true;
      diagnostics.highest_used_bit = j;
    } else {
      ++vacuous;
    }
    if (std::abs(m) > kConstantTolerance &&
        std::abs(m - 1.0) > kConstantTolerance) {
      all_constant = false;
    }
    if (std::abs(m) > kConstantTolerance) all_zero = false;
  }

  diagnostics.constant_metric = observed_bits > 0 && all_constant;
  diagnostics.all_zero = observed_bits > 0 && all_zero;
  diagnostics.noise_dominated =
      rr.enabled() && observed_bits > 0 && !any_informative;
  diagnostics.vacuous_bit_fraction =
      static_cast<double>(vacuous) / static_cast<double>(histogram.bits());

  const int top = histogram.bits() - 1;
  if (observed[static_cast<size_t>(top)] &&
      means[static_cast<size_t>(top)] >= kSaturationThreshold) {
    diagnostics.saturated = true;
  }

  if (diagnostics.all_zero) {
    diagnostics.findings.push_back(
        "metric is identically zero (dead counter?)");
  } else if (diagnostics.constant_metric) {
    diagnostics.findings.push_back(
        "metric is constant across the cohort; mean/variance estimation "
        "is moot");
  }
  if (diagnostics.saturated) {
    diagnostics.findings.push_back(
        "values pile up at the clipping ceiling; increase the bit width");
  }
  if (diagnostics.noise_dominated) {
    diagnostics.findings.push_back(
        "every bit mean is within the DP noise floor; increase cohort or "
        "epsilon");
  }
  if (!diagnostics.saturated && diagnostics.vacuous_bit_fraction > 0.5) {
    diagnostics.findings.push_back(
        "over half the configured bits carry no information; reduce the "
        "bit width");
  }
  return diagnostics;
}

int RecommendBitWidth(const DistributionDiagnostics& diagnostics,
                      int pilot_bits, int headroom_bits) {
  BITPUSH_CHECK_GE(pilot_bits, 1);
  BITPUSH_CHECK_GE(headroom_bits, 0);
  if (diagnostics.saturated) return pilot_bits;  // widen elsewhere, not here
  if (diagnostics.highest_used_bit < 0) return 1;
  return std::clamp(diagnostics.highest_used_bit + 1 + headroom_bits, 1,
                    pilot_bits);
}

}  // namespace bitpush
