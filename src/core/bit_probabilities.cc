#include "core/bit_probabilities.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/check.h"

namespace bitpush {

void NormalizeProbabilities(std::vector<double>& probabilities) {
  BITPUSH_CHECK(!probabilities.empty());
  double total = 0.0;
  for (const double p : probabilities) {
    BITPUSH_CHECK_GE(p, 0.0);
    total += p;
  }
  BITPUSH_CHECK_GT(total, 0.0);
  for (double& p : probabilities) p /= total;
}

std::vector<double> UniformProbabilities(int bits) {
  BITPUSH_CHECK_GE(bits, 1);
  return std::vector<double>(static_cast<size_t>(bits),
                             1.0 / static_cast<double>(bits));
}

std::vector<double> GeometricProbabilities(int bits, double gamma) {
  BITPUSH_CHECK_GE(bits, 1);
  std::vector<double> p(static_cast<size_t>(bits));
  // Compute 2^{gamma (j - (bits-1))} so the largest term is 1 and the sum
  // cannot overflow for large bit widths before normalization.
  for (int j = 0; j < bits; ++j) {
    p[static_cast<size_t>(j)] =
        std::exp2(gamma * static_cast<double>(j - (bits - 1)));
  }
  NormalizeProbabilities(p);
  return p;
}

std::vector<double> BetaCoefficients(const std::vector<double>& bit_means) {
  BITPUSH_CHECK(!bit_means.empty());
  std::vector<double> beta(bit_means.size());
  for (size_t j = 0; j < bit_means.size(); ++j) {
    const double m = std::clamp(bit_means[j], 0.0, 1.0);
    beta[j] = std::exp2(2.0 * static_cast<double>(j)) * m * (1.0 - m);
  }
  return beta;
}

std::vector<double> AdaptiveProbabilitiesMasked(
    const std::vector<double>& bit_means, const std::vector<bool>& keep,
    double alpha, const std::vector<double>& fallback) {
  BITPUSH_CHECK_EQ(bit_means.size(), keep.size());
  BITPUSH_CHECK_EQ(bit_means.size(), fallback.size());
  const std::vector<double> beta = BetaCoefficients(bit_means);
  const double max_beta = *std::max_element(beta.begin(), beta.end());
  std::vector<double> weights(beta.size(), 0.0);
  if (max_beta > 0.0) {
    for (size_t j = 0; j < beta.size(); ++j) {
      if (!keep[j]) continue;
      weights[j] = std::pow(beta[j] / max_beta, alpha);
    }
  }
  double total = 0.0;
  for (const double w : weights) total += w;
  if (total <= 0.0) return fallback;
  for (double& w : weights) w /= total;
  return weights;
}

double VarianceBound(const std::vector<double>& bit_means,
                     const std::vector<double>& probabilities, double n) {
  BITPUSH_CHECK_EQ(bit_means.size(), probabilities.size());
  BITPUSH_CHECK_GT(n, 0.0);
  const std::vector<double> beta = BetaCoefficients(bit_means);
  double total = 0.0;
  for (size_t j = 0; j < beta.size(); ++j) {
    if (beta[j] == 0.0) continue;
    if (probabilities[j] <= 0.0) {
      return std::numeric_limits<double>::infinity();
    }
    total += beta[j] / probabilities[j];
  }
  return total / n;
}

}  // namespace bitpush
