// Numerically stable running moments (Welford's online algorithm).

#ifndef BITPUSH_STATS_WELFORD_H_
#define BITPUSH_STATS_WELFORD_H_

#include <cstdint>

namespace bitpush {

class Welford {
 public:
  Welford() = default;

  // Adds one observation.
  void Add(double x);

  int64_t count() const { return count_; }
  // Mean of observations so far; 0 for an empty accumulator.
  double mean() const { return mean_; }
  // Population variance (divide by n); 0 when count < 1.
  double population_variance() const;
  // Sample variance (divide by n-1); 0 when count < 2.
  double sample_variance() const;
  double population_stddev() const;
  double min() const { return min_; }
  double max() const { return max_; }

 private:
  int64_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;  // sum of squared deviations from the running mean
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace bitpush

#endif  // BITPUSH_STATS_WELFORD_H_
