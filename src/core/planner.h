// Cohort planning: inverting the paper's variance expressions to answer
// the deployment questions of Section 4.3 — "how many clients do we need
// for this accuracy target?" and "what accuracy will this cohort give?".
//
// The plan evaluates the Lemma 3.1 plug-in variance (plus the Section 3.3
// randomized-response term when epsilon > 0) at a caller-supplied guess of
// the bit means; absent a guess, the worst case m_j = 1/2 is assumed.

#ifndef BITPUSH_CORE_PLANNER_H_
#define BITPUSH_CORE_PLANNER_H_

#include <cstdint>
#include <vector>

#include "core/fixed_point.h"

namespace bitpush {

struct CohortPlan {
  // Clients needed to hit the target (rounded up).
  int64_t required_clients = 0;
  // Predicted estimator standard deviation in codeword space for that
  // cohort.
  double predicted_stderr_codewords = 0.0;
  // Single-client variance V1 (variance = V1 / n).
  double unit_variance = 0.0;
};

// Single-client variance V1 of the bit-pushing estimator in codeword
// space: sum_j 4^j (m_j (1 - m_j) + rr_var) / p_j. `bit_means` may be
// empty (worst case 1/2 for every bit) and is clamped to [0, 1].
double UnitVariance(const std::vector<double>& probabilities,
                    const std::vector<double>& bit_means, double epsilon);

// Clients needed so that the estimator's standard error (codeword space)
// is at most `target_stderr`.
CohortPlan PlanForStdError(const std::vector<double>& probabilities,
                           const std::vector<double>& bit_means,
                           double epsilon, double target_stderr);

// Convenience: clients needed for a target NRMSE of the value-domain mean
// `expected_mean` (which must be nonzero and inside the codec range).
CohortPlan PlanForNrmse(const FixedPointCodec& codec,
                        const std::vector<double>& probabilities,
                        const std::vector<double>& bit_means, double epsilon,
                        double expected_mean, double target_nrmse);

}  // namespace bitpush

#endif  // BITPUSH_CORE_PLANNER_H_
