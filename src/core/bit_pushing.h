// Basic bit-pushing (Algorithm 1 of the paper).
//
// Each client holds a b-bit codeword. The server assigns each participating
// client one bit index (drawn with probability p_j, by default via the
// deterministic central/QMC assignment of rng/qmc.h), the client reports
// that single bit — optionally perturbed by randomized response for an
// epsilon-LDP guarantee — and the server recombines the per-bit means:
//
//   estimate = sum_j 2^j * mean_j,   mean_j unbiased for the true bit mean.
//
// The raw material collected by the server is a pair of binary histograms
// per bit index (count of reports, count of 1-reports); those integer
// counts are exactly what the secure-aggregation and distributed-DP layers
// operate on (Section 3.3).

#ifndef BITPUSH_CORE_BIT_PUSHING_H_
#define BITPUSH_CORE_BIT_PUSHING_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ldp/randomized_response.h"
#include "rng/rng.h"

namespace bitpush {

// Per-bit report tallies: the "collection of binary histograms" of
// Section 3.3, and the one tally type from a round to the shard merge.
// Counts are raw (pre-unbiasing) so they compose with secure aggregation
// and count-level DP mechanisms, and they add exactly across rounds,
// queries and shards. Every writer keeps 0 <= ones[j] <= totals[j].
struct BitHistogram {
  // An empty histogram (0 bits): it adds nothing to a Merge, and a Merge
  // into it takes the other histogram's width.
  BitHistogram() = default;
  explicit BitHistogram(int bits);

  std::vector<int64_t> totals;  // reports per bit
  std::vector<int64_t> ones;    // of those, the reports of 1

  int bits() const { return static_cast<int>(totals.size()); }
  // Records one reported bit (0 or 1) for `bit_index`.
  void Add(int bit_index, int reported_bit);
  // Records `reports` reports for `bit_index`, `reported_ones` of which
  // were 1: the bulk form secure-aggregation reconstruction uses (it
  // learns only the pair (count, sum)). Requires
  // 0 <= reported_ones <= reports.
  void Accumulate(int bit_index, int64_t reports, int64_t reported_ones);
  // Pools another histogram (the "caching" combiner of Section 3.2)
  // through the dispatched add_words kernel. Counts are non-negative and
  // far below 2^63, so unsigned word addition equals signed addition. An
  // empty `other` adds nothing; an empty receiver takes `other`'s width
  // and counts; otherwise the widths must match (CHECK-fails).
  void Merge(const BitHistogram& other);
  // Sum of report counts across bits (= number of disclosed bits).
  int64_t TotalReports() const;

  // Per-bit means, unbiased through `rr`. Bits with no reports get 0 and
  // are flagged in `*observed` if non-null. DP-unbiased means may fall
  // outside [0, 1]; they are returned unclamped (Figure 4b relies on that).
  std::vector<double> UnbiasedMeans(const RandomizedResponse& rr,
                                    std::vector<bool>* observed = nullptr)
      const;

  friend bool operator==(const BitHistogram&, const BitHistogram&) = default;
};

// The one tally codec, in journal records, snapshots and shard frames:
// the totals vector, then the ones vector. Decoding fails closed on
// unequal widths and on any count outside 0 <= ones <= totals, leaving
// `*out` and `*offset` untouched.
void EncodeBitHistogram(const BitHistogram& histogram,
                        std::vector<uint8_t>* out);
bool DecodeBitHistogram(std::span<const uint8_t> buffer, size_t* offset,
                        BitHistogram* out);

// Recombines bit means into a codeword-space estimate, optionally masking
// bits out (bit squashing): sum over kept j of 2^j * means[j].
double RecombineBitMeans(const std::vector<double>& means);
double RecombineBitMeans(const std::vector<double>& means,
                         const std::vector<bool>& keep);

// Client-side primitive: extracts bit `bit_index` of `codeword` and applies
// randomized response. This is the *only* place a private bit leaves a
// client, which is what makes the one-bit disclosure guarantee auditable.
int MakeBitReport(uint64_t codeword, int bit_index,
                  const RandomizedResponse& rr, Rng& rng);

struct BitPushingConfig {
  // Per-bit sampling probabilities; must be non-negative and sum to 1.
  // Its length defines the bit width b.
  std::vector<double> probabilities;
  // Per-report randomized response budget; <= 0 disables DP noise. When a
  // client sends multiple bits each report is separately perturbed at this
  // epsilon (the per-value budget is bits_per_client * epsilon under basic
  // composition).
  double epsilon = 0.0;
  // b_send of Corollary 3.2: number of (independently assigned) bits each
  // client reports. 1 preserves the headline one-bit guarantee.
  int bits_per_client = 1;
  // Central randomness (server-chosen bits, QMC counts) vs local randomness
  // (client-chosen bits). Central is the paper's default (Section 3.1).
  bool central_randomness = true;
};

struct BitPushingResult {
  // Estimate in codeword space (decode with the FixedPointCodec in use).
  double estimate_codeword = 0.0;
  // Unbiased per-bit means (unclamped).
  std::vector<double> bit_means;
  // Which bits received at least one report.
  std::vector<bool> observed;
  // Raw tallies, for pooling/caching and DP post-processing.
  BitHistogram histogram;
  // Plug-in evaluation of the Lemma 3.1 / Section 3.3 variance expression
  // at the estimated means (codeword space): sum_j 4^j (v_j + rr_var) /
  // (p_j * n), where v_j = clamp(m_j)(1 - clamp(m_j)).
  double variance_bound = 0.0;
};

// Runs Algorithm 1 over the whole `codewords` population.
BitPushingResult RunBasicBitPushing(const std::vector<uint64_t>& codewords,
                                    const BitPushingConfig& config, Rng& rng);

// Plug-in variance of a completed collection (used for both fresh and
// pooled histograms): sum_j 4^j (v_j + rr_var) / count_j over observed
// bits with positive estimated variance.
double PluginVariance(const BitHistogram& histogram,
                      const std::vector<double>& means,
                      const RandomizedResponse& rr);

}  // namespace bitpush

#endif  // BITPUSH_CORE_BIT_PUSHING_H_
