#include "data/synthetic.h"

#include <algorithm>
#include <functional>
#include <string>

#include "rng/distributions.h"
#include "util/check.h"

namespace bitpush {
namespace {

std::vector<double> Generate(int64_t n,
                             const std::function<double()>& sample) {
  BITPUSH_CHECK_GE(n, 0);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) values.push_back(sample());
  return values;
}

}  // namespace

Dataset NormalData(int64_t n, double mean, double stddev, Rng& rng) {
  return Dataset("normal(" + std::to_string(mean) + "," +
                     std::to_string(stddev) + ")",
                 Generate(n, [&] {
                   return std::max(0.0, SampleNormal(rng, mean, stddev));
                 }));
}

Dataset UniformData(int64_t n, double low, double high, Rng& rng) {
  return Dataset(
      "uniform(" + std::to_string(low) + "," + std::to_string(high) + ")",
      Generate(n, [&] { return SampleUniform(rng, low, high); }));
}

Dataset ExponentialData(int64_t n, double mean, Rng& rng) {
  return Dataset("exponential(" + std::to_string(mean) + ")",
                 Generate(n, [&] { return SampleExponential(rng, mean); }));
}

Dataset ParetoData(int64_t n, double scale, double shape, Rng& rng) {
  return Dataset(
      "pareto(" + std::to_string(scale) + "," + std::to_string(shape) + ")",
      Generate(n, [&] { return SamplePareto(rng, scale, shape); }));
}

Dataset LognormalData(int64_t n, double log_mean, double log_stddev,
                      Rng& rng) {
  return Dataset("lognormal(" + std::to_string(log_mean) + "," +
                     std::to_string(log_stddev) + ")",
                 Generate(n, [&] {
                   return SampleLognormal(rng, log_mean, log_stddev);
                 }));
}

Dataset BinaryWithOutliersData(int64_t n, double outlier_fraction,
                               double outlier_scale, Rng& rng) {
  BITPUSH_CHECK_GE(outlier_fraction, 0.0);
  BITPUSH_CHECK_LE(outlier_fraction, 1.0);
  return Dataset("binary_with_outliers(" + std::to_string(outlier_fraction) +
                     ")",
                 Generate(n, [&] {
                   if (rng.NextBernoulli(outlier_fraction)) {
                     return SamplePareto(rng, outlier_scale, 1.1);
                   }
                   return static_cast<double>(rng.NextBit());
                 }));
}

}  // namespace bitpush
