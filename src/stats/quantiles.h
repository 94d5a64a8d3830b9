// Exact quantiles over in-memory data. Used for ground truth and for the
// robust-statistics discussion of the deployment section (winsorization
// thresholds, percentile checks on heavy-tailed telemetry).

#ifndef BITPUSH_STATS_QUANTILES_H_
#define BITPUSH_STATS_QUANTILES_H_

#include <vector>

namespace bitpush {

// Returns the q-quantile (q in [0, 1]) of `values` with linear
// interpolation between order statistics. `values` must be non-empty; the
// input is copied, not mutated.
double Quantile(const std::vector<double>& values, double q);

}  // namespace bitpush

#endif  // BITPUSH_STATS_QUANTILES_H_
