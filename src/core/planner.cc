#include "core/planner.h"

#include <algorithm>
#include <cmath>

#include "ldp/randomized_response.h"
#include "util/check.h"

namespace bitpush {

double UnitVariance(const std::vector<double>& probabilities,
                    const std::vector<double>& bit_means, double epsilon) {
  BITPUSH_CHECK(!probabilities.empty());
  BITPUSH_CHECK(bit_means.empty() ||
                bit_means.size() == probabilities.size());
  const double rr_var =
      RandomizedResponse::FromEpsilon(epsilon).ReportVariance();
  double v1 = 0.0;
  for (size_t j = 0; j < probabilities.size(); ++j) {
    const double m =
        bit_means.empty() ? 0.5 : std::clamp(bit_means[j], 0.0, 1.0);
    const double per_report = m * (1.0 - m) + rr_var;
    if (per_report == 0.0) continue;
    BITPUSH_CHECK_GT(probabilities[j], 0.0)
        << "bit " << j << " has variance but zero sampling probability";
    v1 += std::exp2(2.0 * static_cast<double>(j)) * per_report /
          probabilities[j];
  }
  return v1;
}

CohortPlan PlanForStdError(const std::vector<double>& probabilities,
                           const std::vector<double>& bit_means,
                           double epsilon, double target_stderr) {
  BITPUSH_CHECK_GT(target_stderr, 0.0);
  CohortPlan plan;
  plan.unit_variance = UnitVariance(probabilities, bit_means, epsilon);
  plan.required_clients = static_cast<int64_t>(
      std::ceil(plan.unit_variance / (target_stderr * target_stderr)));
  plan.required_clients = std::max<int64_t>(plan.required_clients, 1);
  plan.predicted_stderr_codewords = std::sqrt(
      plan.unit_variance / static_cast<double>(plan.required_clients));
  return plan;
}

CohortPlan PlanForNrmse(const FixedPointCodec& codec,
                        const std::vector<double>& probabilities,
                        const std::vector<double>& bit_means, double epsilon,
                        double expected_mean, double target_nrmse) {
  BITPUSH_CHECK_EQ(static_cast<int>(probabilities.size()), codec.bits());
  BITPUSH_CHECK_GT(target_nrmse, 0.0);
  BITPUSH_CHECK_NE(expected_mean, 0.0);
  // Convert the value-domain NRMSE target into a codeword-space standard
  // error: the decode map is affine with slope resolution().
  const double target_value_stderr =
      target_nrmse * std::abs(expected_mean);
  const double target_codeword_stderr =
      target_value_stderr / codec.resolution();
  return PlanForStdError(probabilities, bit_means, epsilon,
                         target_codeword_stderr);
}

}  // namespace bitpush
