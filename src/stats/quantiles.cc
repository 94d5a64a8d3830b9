#include "stats/quantiles.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"

namespace bitpush {
namespace {

double QuantileOfSorted(const std::vector<double>& sorted, double q) {
  BITPUSH_CHECK(!sorted.empty());
  BITPUSH_CHECK_GE(q, 0.0);
  BITPUSH_CHECK_LE(q, 1.0);
  const double position = q * static_cast<double>(sorted.size() - 1);
  const size_t lower = static_cast<size_t>(std::floor(position));
  const size_t upper = static_cast<size_t>(std::ceil(position));
  const double fraction = position - static_cast<double>(lower);
  return sorted[lower] + fraction * (sorted[upper] - sorted[lower]);
}

}  // namespace

double Quantile(const std::vector<double>& values, double q) {
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  return QuantileOfSorted(sorted, q);
}

}  // namespace bitpush
