#include "core/moments.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bitpush {
namespace {

// Runs the adaptive protocol on derived values under `codec` and decodes.
double PushMean(const std::vector<double>& values,
                const FixedPointCodec& codec, const MomentConfig& config,
                Rng& rng) {
  AdaptiveConfig protocol = config.protocol;
  protocol.bits = codec.bits();
  return codec.Decode(
      RunAdaptiveBitPushing(codec.EncodeAll(values), protocol, rng)
          .estimate_codeword);
}

// Codec for the k-th power of a non-negative domain bounded by `high`.
FixedPointCodec PowerCodec(const FixedPointCodec& codec, int k,
                           double high) {
  const int bits = std::min(k * codec.bits(), kMaxBits);
  return FixedPointCodec(bits, 0.0, std::max(std::pow(high, k), 1.0));
}

double IntPow(double base, int k) {
  double result = 1.0;
  for (int i = 0; i < k; ++i) result *= base;
  return result;
}

}  // namespace

double EstimateRawMoment(const std::vector<double>& values,
                         const FixedPointCodec& codec, int k,
                         const MomentConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(k, 1);
  BITPUSH_CHECK_GE(values.size(), 2u);
  std::vector<double> powers;
  powers.reserve(values.size());
  for (const double x : values) {
    powers.push_back(IntPow(std::clamp(x, codec.low(), codec.high()), k));
  }
  return PushMean(powers, PowerCodec(codec, k, codec.high()), config, rng);
}

double EstimateCentralMoment(const std::vector<double>& values,
                             const FixedPointCodec& codec, int k,
                             const MomentConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(k, 1);
  BITPUSH_CHECK_GE(values.size(), 6u);
  BITPUSH_CHECK_GT(config.mean_fraction, 0.0);
  BITPUSH_CHECK_LT(config.mean_fraction, 1.0);

  const int64_t n = static_cast<int64_t>(values.size());
  int64_t n_mean = static_cast<int64_t>(
      std::llround(config.mean_fraction * static_cast<double>(n)));
  n_mean = std::clamp<int64_t>(n_mean, 2, n - 4);

  const std::vector<double> mean_cohort(values.begin(),
                                        values.begin() + n_mean);
  const double mu = PushMean(mean_cohort, codec, config, rng);

  const double width = codec.high() - codec.low();
  const FixedPointCodec moment_codec = PowerCodec(codec, k, width);

  if (k % 2 == 0) {
    std::vector<double> derived;
    derived.reserve(static_cast<size_t>(n - n_mean));
    for (int64_t i = n_mean; i < n; ++i) {
      derived.push_back(IntPow(values[static_cast<size_t>(i)] - mu, k));
    }
    return PushMean(derived, moment_codec, config, rng);
  }

  // Odd k: signed expansions are not linear in the sign bit, so the
  // positive and negative parts are pushed as two separate non-negative
  // aggregations over disjoint halves and recombined. Each half estimates
  // the population mean of its one-sided magnitude.
  std::vector<double> positive;
  std::vector<double> negative;
  const int64_t n_rest = n - n_mean;
  const int64_t split = n_mean + n_rest / 2;
  for (int64_t i = n_mean; i < n; ++i) {
    const double d = values[static_cast<size_t>(i)] - mu;
    if (i < split) {
      positive.push_back(d > 0 ? IntPow(d, k) : 0.0);
    } else {
      negative.push_back(d < 0 ? IntPow(-d, k) : 0.0);
    }
  }
  const double pos = PushMean(positive, moment_codec, config, rng);
  const double neg = PushMean(negative, moment_codec, config, rng);
  return pos - neg;
}

double EstimateGeometricMean(const std::vector<double>& values,
                             const FixedPointCodec& codec,
                             double positive_floor, int log_bits,
                             const MomentConfig& config, Rng& rng) {
  return std::exp(EstimateLogProduct(values, codec, positive_floor,
                                     log_bits, config, rng) /
                  static_cast<double>(values.size()));
}

double EstimateLogProduct(const std::vector<double>& values,
                          const FixedPointCodec& codec,
                          double positive_floor, int log_bits,
                          const MomentConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(values.size(), 2u);
  BITPUSH_CHECK_GT(positive_floor, 0.0);
  BITPUSH_CHECK_LT(positive_floor, codec.high());
  std::vector<double> logs;
  logs.reserve(values.size());
  for (const double x : values) {
    logs.push_back(std::log(std::clamp(x, positive_floor, codec.high())));
  }
  const FixedPointCodec log_codec(log_bits, std::log(positive_floor),
                                  std::log(codec.high()));
  const double mean_log = PushMean(logs, log_codec, config, rng);
  return mean_log * static_cast<double>(values.size());
}

}  // namespace bitpush
