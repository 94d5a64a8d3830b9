// Adaptive two-round bit-pushing (Algorithm 2 of the paper).
//
// Round 1 probes a delta fraction of the population with input-independent
// geometric probabilities p1_j proportional to (2^j)^gamma, yielding
// estimated bit means m1. Round 2 queries the remaining clients with the
// learned allocation p2_j proportional to (4^j m1_j (1 - m1_j))^alpha
// (Lemma 3.3 at alpha = 0.5). With caching enabled (the paper's default,
// Section 3.2) the reports of both rounds are pooled per bit before the
// final recombination; otherwise the estimate uses round-2 reports, falling
// back to round-1 means for bits round 2 did not sample.
//
// Paper defaults: gamma = 0.5, alpha = 0.5, delta = 1/3, caching on.
// Under DP noise, bit squashing (Section 3.3) zeroes the weight of bits
// whose round-1 mean looks like pure noise and masks them out of the final
// estimate.

#ifndef BITPUSH_CORE_ADAPTIVE_H_
#define BITPUSH_CORE_ADAPTIVE_H_

#include <cstdint>
#include <vector>

#include "core/bit_pushing.h"
#include "core/bit_squashing.h"
#include "rng/rng.h"

namespace bitpush {

struct AdaptiveConfig {
  int bits = 16;
  double gamma = 0.5;        // round-1 exponent: p1_j propto 2^{gamma j}
  double alpha = 0.5;        // round-2 exponent on beta_j
  double delta = 1.0 / 3.0;  // fraction of clients probed in round 1
  bool caching = true;       // pool rounds (Section 3.2 "Caching")
  double epsilon = 0.0;      // per-report RR budget; <= 0 disables DP
  int bits_per_client = 1;   // b_send per round
  bool central_randomness = true;
  SquashPolicy squash = SquashPolicy::Off();
};

struct AdaptiveResult {
  // Final estimate in codeword space.
  double estimate_codeword = 0.0;
  // The two per-round results (round2 may have zero reports for bits whose
  // learned probability collapsed to 0).
  BitPushingResult round1;
  BitPushingResult round2;
  // The probabilities used in each round.
  std::vector<double> round1_probabilities;
  std::vector<double> round2_probabilities;
  // Means entering the final recombination (pooled if caching).
  std::vector<double> final_means;
  // Post-squash keep mask applied to final_means.
  std::vector<bool> kept;
  // Plug-in variance of the final estimate.
  double variance_bound = 0.0;
};

// Runs Algorithm 2 over the whole codeword population. Requires
// codewords.size() >= 2 so both rounds have at least one client, and
// 0 < delta < 1.
AdaptiveResult RunAdaptiveBitPushing(const std::vector<uint64_t>& codewords,
                                     const AdaptiveConfig& config, Rng& rng);

// The two steps of Algorithm 2 after each round, shared by
// RunAdaptiveBitPushing and the federated query (federated/round.h).

// The round-2 allocation learned from round 1's tallies: squashed bits get
// zero sampling weight (Section 3.3), and `round1_probabilities` stand in
// when every weight vanishes.
std::vector<double> LearnRound2Probabilities(
    const BitHistogram& round1, const RandomizedResponse& rr,
    const AdaptiveConfig& config,
    const std::vector<double>& round1_probabilities);

// The final aggregation (Algorithm 2, lines 9-11).
struct PooledEstimate {
  // Means entering the recombination, and the reports behind each.
  std::vector<double> means;
  std::vector<int64_t> counts;
  // Post-squash keep mask applied to `means`.
  std::vector<bool> kept;
  double estimate_codeword = 0.0;
};

// With caching the two rounds' reports are pooled per bit; otherwise the
// means come from round 2, with round-1 means for bits round 2 did not
// sample.
PooledEstimate PoolAdaptiveRounds(const BitHistogram& round1,
                                  const BitHistogram& round2,
                                  const RandomizedResponse& rr,
                                  const AdaptiveConfig& config);

}  // namespace bitpush

#endif  // BITPUSH_CORE_ADAPTIVE_H_
