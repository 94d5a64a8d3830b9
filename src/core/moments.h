// Nonlinear aggregates via bit-pushing (the Section 3.4 extensions:
// "higher moments, products and geometric means can also be approximated
// via bit-pushing").
//
// Every estimator reduces to mean estimation of a locally computed derived
// value, so each client still discloses at most one bit:
//   * raw moment E[X^k]: clients push bits of x^k (k-fold wider codec),
//   * central moment E[(X - mu)^k]: a first phase estimates mu, the
//     remaining clients push bits of (x - mu_hat)^k,
//   * geometric mean exp(E[ln X]): clients push bits of ln(x) over a
//     log-domain codec,
//   * product over the population: exp(n * E[ln X]), reported in log space
//     to avoid overflow.

#ifndef BITPUSH_CORE_MOMENTS_H_
#define BITPUSH_CORE_MOMENTS_H_

#include <vector>

#include "core/adaptive.h"
#include "core/fixed_point.h"
#include "rng/rng.h"

namespace bitpush {

struct MomentConfig {
  // Protocol parameters for each phase; `bits` is the *input* width and is
  // widened automatically for powers (capped at kMaxBits).
  AdaptiveConfig protocol;
  // For central moments: fraction of clients used to estimate the mean.
  double mean_fraction = 0.5;
};

// Estimates E[X^k] for k >= 1 over `values` described by `codec`.
// Requires at least 2 clients (4 for k >= 2 central moments).
double EstimateRawMoment(const std::vector<double>& values,
                         const FixedPointCodec& codec, int k,
                         const MomentConfig& config, Rng& rng);

// Estimates E[(X - mu)^k]; odd k uses a signed split (positive and
// negative parts pushed separately, since signed binary expansions are not
// linear in the sign bit — footnote 1 of the paper).
double EstimateCentralMoment(const std::vector<double>& values,
                             const FixedPointCodec& codec, int k,
                             const MomentConfig& config, Rng& rng);

// Geometric mean exp(mean of ln x). Values are clamped to
// [positive_floor, codec.high()] so the log transform is defined;
// `log_bits` is the codec width used in log space.
double EstimateGeometricMean(const std::vector<double>& values,
                             const FixedPointCodec& codec,
                             double positive_floor, int log_bits,
                             const MomentConfig& config, Rng& rng);

// Natural log of the product of all values (clamped as above):
// n * E[ln X]. The product itself usually overflows; callers exponentiate
// if they know it is safe.
double EstimateLogProduct(const std::vector<double>& values,
                          const FixedPointCodec& codec,
                          double positive_floor, int log_bits,
                          const MomentConfig& config, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_CORE_MOMENTS_H_
