// Synthetic workload generators matching Section 4's setup ("we generated
// synthetic data by drawing values from Normal, uniform and exponential
// distributions with varying parameters") plus the heavy-tailed and
// degenerate families observed in deployment (Section 4.3).

#ifndef BITPUSH_DATA_SYNTHETIC_H_
#define BITPUSH_DATA_SYNTHETIC_H_

#include <cstdint>

#include "data/dataset.h"
#include "rng/rng.h"

namespace bitpush {

// Normal(mean, stddev); negative draws are clamped to 0 so values encode as
// non-negative fixed-point integers, as the paper's pipelines assume.
Dataset NormalData(int64_t n, double mean, double stddev, Rng& rng);

// Uniform on [low, high).
Dataset UniformData(int64_t n, double low, double high, Rng& rng);

// Exponential with the given mean.
Dataset ExponentialData(int64_t n, double mean, Rng& rng);

// Pareto(scale, shape): heavy-tailed; shape <= 2 has infinite variance.
Dataset ParetoData(int64_t n, double scale, double shape, Rng& rng);

// Lognormal with the given log-space parameters.
Dataset LognormalData(int64_t n, double log_mean, double log_stddev, Rng& rng);

// The deployment pathology of Section 4.3: "features whose most typical
// values are 0 and 1, ... but some rare clients report values that are
// orders of magnitude higher". Mass (1 - outlier_fraction) is split evenly
// between 0 and 1; outliers are Pareto(outlier_scale, 1.1).
Dataset BinaryWithOutliersData(int64_t n, double outlier_fraction,
                               double outlier_scale, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_DATA_SYNTHETIC_H_
