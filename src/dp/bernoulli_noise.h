// Distributed Bernoulli/binomial noise for binary histograms (Balcer & Cheu
// style, Section 3.3): instead of each client fully masking its own bit
// (local DP), a pool of clients each contributes one fair random bit, so the
// aggregate noise is Binomial(m, 1/2) — comparable to central-DP noise. The
// server subtracts the expected noise m/2 to debias.

#ifndef BITPUSH_DP_BERNOULLI_NOISE_H_
#define BITPUSH_DP_BERNOULLI_NOISE_H_

#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace bitpush {

// Number of fair noise bits per bucket sufficient for an (epsilon, delta)
// guarantee: binomial noise with variance m/4 gives (epsilon, delta)-DP for
// sensitivity-1 counts when m >= 32 ln(2/delta) / epsilon^2 (standard
// binomial-mechanism bound, conservative constants).
int64_t NoiseBitsForBudget(double epsilon, double delta);

// Adds Binomial(noise_bits, 1/2) to each bucket count and subtracts the
// mean noise, returning debiased (possibly negative, fractional-mean)
// counts. Expected error per bucket is O(sqrt(noise_bits)).
std::vector<double> AddBinomialNoise(const std::vector<int64_t>& counts,
                                     int64_t noise_bits, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_DP_BERNOULLI_NOISE_H_
