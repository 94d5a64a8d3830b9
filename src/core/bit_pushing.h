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
// Section 3.3. Counts are raw (pre-unbiasing) so they compose with secure
// aggregation and count-level DP mechanisms.
class BitHistogram {
 public:
  // An empty histogram (0 bits); reassign before use.
  BitHistogram() = default;
  explicit BitHistogram(int bits);

  // Records one reported bit (0 or 1) for `bit_index`.
  void Add(int bit_index, int reported_bit);
  // Records `reports` reports for `bit_index`, `ones` of which were 1 —
  // the bulk form used by the columnar batch path and secure-aggregation
  // reconstruction (which learns only the pair (count, sum)). Requires
  // 0 <= ones <= reports.
  void Accumulate(int bit_index, int64_t reports, int64_t ones);
  // Pools another histogram (the "caching" combiner of Section 3.2).
  void Merge(const BitHistogram& other);

  // Rebuilds a histogram from raw per-bit counts (snapshot/journal
  // recovery). CHECK-fails on inconsistent inputs (mismatched lengths,
  // negative counts, ones > total) — callers decode through
  // DecodeBitHistogram, which validates first.
  static BitHistogram FromCounts(std::vector<int64_t> totals,
                                 std::vector<int64_t> ones);

  int bits() const { return static_cast<int>(total_.size()); }
  int64_t total(int bit_index) const;
  int64_t ones(int bit_index) const;
  const std::vector<int64_t>& totals() const { return total_; }
  const std::vector<int64_t>& one_counts() const { return ones_; }
  // Sum of report counts across bits (= number of disclosed bits).
  int64_t TotalReports() const;

  // Per-bit means, unbiased through `rr`. Bits with no reports get 0 and
  // are flagged in `*observed` if non-null. DP-unbiased means may fall
  // outside [0, 1]; they are returned unclamped (Figure 4b relies on that).
  std::vector<double> UnbiasedMeans(const RandomizedResponse& rr,
                                    std::vector<bool>* observed = nullptr)
      const;

 private:
  std::vector<int64_t> total_;
  std::vector<int64_t> ones_;
};

// Serialization of the raw tallies (vector lengths + counts), used by the
// durable-state layer (src/persist/). Decoding validates the counts
// (non-negative, ones <= total, matching lengths) and returns false on any
// violation without touching `*out`.
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
