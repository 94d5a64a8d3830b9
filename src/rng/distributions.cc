#include "rng/distributions.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bitpush {

double SampleUniform(Rng& rng, double low, double high) {
  BITPUSH_CHECK_LE(low, high);
  return low + (high - low) * rng.NextDouble();
}

double SampleNormal(Rng& rng, double mean, double stddev) {
  BITPUSH_CHECK_GE(stddev, 0.0);
  if (stddev == 0.0) return mean;
  // Marsaglia polar method; we discard the second variate to keep samplers
  // stateless (workload generation is not a hot path).
  while (true) {
    const double u = 2.0 * rng.NextDouble() - 1.0;
    const double v = 2.0 * rng.NextDouble() - 1.0;
    const double s = u * u + v * v;
    if (s > 0.0 && s < 1.0) {
      return mean + stddev * u * std::sqrt(-2.0 * std::log(s) / s);
    }
  }
}

double SampleExponential(Rng& rng, double mean) {
  BITPUSH_CHECK_GT(mean, 0.0);
  // -mean * log(U) with U in (0, 1].
  return -mean * std::log(1.0 - rng.NextDouble());
}

double SampleLaplace(Rng& rng, double location, double scale) {
  BITPUSH_CHECK_GT(scale, 0.0);
  const double u = rng.NextDouble() - 0.5;  // (-0.5, 0.5)
  const double magnitude = -std::log(1.0 - 2.0 * std::abs(u));
  return location + (u < 0 ? -scale : scale) * magnitude;
}

double SamplePareto(Rng& rng, double scale, double shape) {
  BITPUSH_CHECK_GT(scale, 0.0);
  BITPUSH_CHECK_GT(shape, 0.0);
  const double u = 1.0 - rng.NextDouble();  // (0, 1]
  return scale / std::pow(u, 1.0 / shape);
}

double SampleLognormal(Rng& rng, double log_mean, double log_stddev) {
  return std::exp(SampleNormal(rng, log_mean, log_stddev));
}

int64_t SampleBinomial(Rng& rng, int64_t n, double p) {
  BITPUSH_CHECK_GE(n, 0);
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  const double variance = static_cast<double>(n) * p * (1.0 - p);
  if (variance > 100.0) {
    const double mean = static_cast<double>(n) * p;
    const double draw = std::round(SampleNormal(rng, mean, std::sqrt(variance)));
    return std::clamp<int64_t>(static_cast<int64_t>(draw), 0, n);
  }
  int64_t successes = 0;
  for (int64_t i = 0; i < n; ++i) successes += rng.NextBernoulli(p) ? 1 : 0;
  return successes;
}

DiscreteSampler::DiscreteSampler(const std::vector<double>& weights) {
  BITPUSH_CHECK(!weights.empty());
  cumulative_.reserve(weights.size());
  double total = 0.0;
  for (const double w : weights) {
    BITPUSH_CHECK_GE(w, 0.0);
    total += w;
    cumulative_.push_back(total);
  }
  BITPUSH_CHECK_GT(total, 0.0);
  for (double& c : cumulative_) c /= total;
  cumulative_.back() = 1.0;  // guard against rounding drift
}

size_t DiscreteSampler::Sample(Rng& rng) const {
  const double u = rng.NextDouble();
  const auto it =
      std::upper_bound(cumulative_.begin(), cumulative_.end(), u);
  return static_cast<size_t>(std::min<ptrdiff_t>(
      it - cumulative_.begin(),
      static_cast<ptrdiff_t>(cumulative_.size()) - 1));
}

}  // namespace bitpush
