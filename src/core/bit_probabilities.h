// Bit-sampling probability policies (Section 3.1).
//
// The quality of bit-pushing depends on the probability p_j with which bit
// index j is sampled. The paper considers:
//   * uniform:   p_j = 1/b (suboptimal, shown for contrast),
//   * weighted:  p_j proportional to (2^j)^gamma (the principled geometric
//                family; gamma = 1 is the "pessimistic optimal"
//                p_j = 2^j / (2^b - 1) from Equation (7)),
//   * optimal:   p_j proportional to sqrt(beta_j) with
//                beta_j = 4^j m_j (1 - m_j) (Lemma 3.3), used by the
//                adaptive protocol's second round with an exponent alpha.

#ifndef BITPUSH_CORE_BIT_PROBABILITIES_H_
#define BITPUSH_CORE_BIT_PROBABILITIES_H_

#include <vector>

namespace bitpush {

// In-place L1 normalization. The entries must be non-negative with a
// positive sum.
void NormalizeProbabilities(std::vector<double>& probabilities);

// p_j = 1/bits for all j.
std::vector<double> UniformProbabilities(int bits);

// p_j proportional to (2^j)^gamma = 2^{gamma j}. gamma = 0 reduces to
// uniform; gamma = 1 is Equation (7)'s allocation.
std::vector<double> GeometricProbabilities(int bits, double gamma);

// The adaptive second-round family (Algorithm 2, line 6):
// p_j proportional to (4^j m_j (1 - m_j))^alpha over the kept bits; noisy
// means outside [0, 1] are clamped before use. Squashed bits
// (keep[j] == false) get zero probability before normalization. Returns
// `fallback` when every weight vanishes. With every bit kept, alpha = 0.5
// is Lemma 3.3's variance-minimizing allocation
// p_j proportional to sqrt(4^j m_j (1 - m_j)), under which bits whose mean
// is exactly 0 or 1 get probability 0. Used by the adaptive second round
// (with squashing) and by the federated query pipeline.
std::vector<double> AdaptiveProbabilitiesMasked(
    const std::vector<double>& bit_means, const std::vector<bool>& keep,
    double alpha, const std::vector<double>& fallback);

// Plug-in evaluation of the Lemma 3.1 variance expression
//   (1/n) * sum_j 4^j m_j (1 - m_j) / p_j
// for a given allocation. Terms with m_j(1-m_j) == 0 contribute 0 even if
// p_j == 0; a zero p_j with positive bit variance yields +infinity.
double VarianceBound(const std::vector<double>& bit_means,
                     const std::vector<double>& probabilities, double n);

// The per-bit variance coefficients beta_j = 4^j m_j (1 - m_j).
std::vector<double> BetaCoefficients(const std::vector<double>& bit_means);

}  // namespace bitpush

#endif  // BITPUSH_CORE_BIT_PROBABILITIES_H_
