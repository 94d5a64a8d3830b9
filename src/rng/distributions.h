// Samplers for the probability distributions used by workload generators and
// privacy mechanisms. All samplers are pure functions of the supplied Rng.

#ifndef BITPUSH_RNG_DISTRIBUTIONS_H_
#define BITPUSH_RNG_DISTRIBUTIONS_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace bitpush {

// Uniform real in [low, high).
double SampleUniform(Rng& rng, double low, double high);

// Normal(mean, stddev) via Marsaglia polar method. `stddev` must be >= 0.
double SampleNormal(Rng& rng, double mean, double stddev);

// Exponential with the given mean (= 1/rate). `mean` must be > 0.
double SampleExponential(Rng& rng, double mean);

// Laplace(location, scale) via inverse CDF. `scale` must be > 0.
double SampleLaplace(Rng& rng, double location, double scale);

// Pareto with minimum `scale` > 0 and tail index `shape` > 0 (heavy-tailed
// for shape <= 2).
double SamplePareto(Rng& rng, double scale, double shape);

// Lognormal: exp(Normal(log_mean, log_stddev)).
double SampleLognormal(Rng& rng, double log_mean, double log_stddev);

// Binomial(n, p) by summing Bernoulli draws for small n and a normal
// approximation guarded to [0, n] for large n (n*p*(1-p) > 100). Used for
// simulating aggregate noise; the approximation error is far below the
// statistical noise being modeled.
int64_t SampleBinomial(Rng& rng, int64_t n, double p);

// Precomputed alias-free cumulative sampler for repeated draws from one
// discrete distribution (used by the census workload, where millions of
// draws share the same weights).
class DiscreteSampler {
 public:
  // Weights must be non-negative with a positive sum.
  explicit DiscreteSampler(const std::vector<double>& weights);

  size_t Sample(Rng& rng) const;
  size_t size() const { return cumulative_.size(); }

 private:
  std::vector<double> cumulative_;  // normalized, nondecreasing, ends at 1
};

}  // namespace bitpush

#endif  // BITPUSH_RNG_DISTRIBUTIONS_H_
