#include "stats/welford.h"

#include <algorithm>
#include <cmath>

namespace bitpush {

void Welford::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

double Welford::population_variance() const {
  if (count_ < 1) return 0.0;
  return m2_ / static_cast<double>(count_);
}

double Welford::sample_variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double Welford::population_stddev() const {
  return std::sqrt(population_variance());
}

}  // namespace bitpush
