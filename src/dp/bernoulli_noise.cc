#include "dp/bernoulli_noise.h"

#include <cmath>

#include "rng/distributions.h"
#include "util/check.h"

namespace bitpush {

int64_t NoiseBitsForBudget(double epsilon, double delta) {
  BITPUSH_CHECK_GT(epsilon, 0.0);
  BITPUSH_CHECK_GT(delta, 0.0);
  BITPUSH_CHECK_LT(delta, 1.0);
  const double m = 32.0 * std::log(2.0 / delta) / (epsilon * epsilon);
  return static_cast<int64_t>(std::ceil(m));
}

std::vector<double> AddBinomialNoise(const std::vector<int64_t>& counts,
                                     int64_t noise_bits, Rng& rng) {
  BITPUSH_CHECK_GE(noise_bits, 0);
  std::vector<double> noisy;
  noisy.reserve(counts.size());
  const double mean_noise = static_cast<double>(noise_bits) / 2.0;
  for (const int64_t count : counts) {
    const int64_t noise = SampleBinomial(rng, noise_bits, 0.5);
    noisy.push_back(static_cast<double>(count) +
                    static_cast<double>(noise) - mean_noise);
  }
  return noisy;
}

}  // namespace bitpush
