#include "data/census.h"

#include <cmath>

#include "rng/distributions.h"
#include "util/check.h"

namespace bitpush {
namespace {

// Builds the embedded age pyramid. Shape (relative population per year of
// age, 1990s US):
//   * ages 0-17: high and nearly flat (children),
//   * ages 18-24: slight dip (the post-boom "bust"),
//   * ages 25-44: the baby-boom bulge (the mode of the adult distribution),
//   * ages 45-64: steady decline,
//   * ages 65-90: exponential-style old-age decay, with age 90 absorbing
//     the 90+ remainder.
// The resulting distribution has mean ~= 34 and uses 7 bits (b_max = 7).
std::vector<double> BuildWeights() {
  std::vector<double> weights(kCensusMaxAge + 1);
  for (int age = 0; age <= kCensusMaxAge; ++age) {
    double w = 0.0;
    if (age <= 17) {
      w = 1.45;
    } else if (age <= 24) {
      w = 1.25;
    } else if (age <= 44) {
      // Bulge peaking near 32.
      const double d = (static_cast<double>(age) - 32.0) / 12.0;
      w = 1.65 - 0.25 * d * d;
    } else if (age <= 64) {
      w = 1.30 - 0.03 * static_cast<double>(age - 44);
    } else {
      w = 0.70 * std::exp(-0.075 * static_cast<double>(age - 64));
    }
    weights[static_cast<size_t>(age)] = w;
  }
  // 90+ bucket: the integrated tail beyond 90 at the same decay rate.
  weights[kCensusMaxAge] +=
      weights[kCensusMaxAge] * (std::exp(-0.075) / (1.0 - std::exp(-0.075)));
  return weights;
}

}  // namespace

const std::vector<double>& CensusAgeWeights() {
  static const std::vector<double>& weights = *new std::vector<double>(
      BuildWeights());
  return weights;
}

Dataset CensusAges(int64_t n, Rng& rng) {
  BITPUSH_CHECK_GE(n, 0);
  static const DiscreteSampler& sampler =
      *new DiscreteSampler(CensusAgeWeights());
  std::vector<double> ages;
  ages.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    ages.push_back(static_cast<double>(sampler.Sample(rng)));
  }
  return Dataset("census_ages", std::move(ages));
}

}  // namespace bitpush
