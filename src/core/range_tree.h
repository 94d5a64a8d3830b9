// Hierarchical (dyadic) one-bit range queries.
//
// The flat histogram of core/histogram_estimation.h answers fixed-bucket
// queries; arbitrary range counts and smoother quantile descent need the
// classic dyadic decomposition: every level L splits the codeword domain
// [0, 2^levels) into 2^L aligned nodes, any range is covered by at most
// 2*levels nodes, and each client still reveals exactly one bit — the
// server assigns it one (level, node) cell and it reports
// 1{my value falls inside that node}.

#ifndef BITPUSH_CORE_RANGE_TREE_H_
#define BITPUSH_CORE_RANGE_TREE_H_

#include <cstdint>
#include <vector>

#include "rng/rng.h"

namespace bitpush {

struct RangeTreeConfig {
  // Depth of the tree: the domain is codewords [0, 2^levels). Cell count
  // grows as 2^levels; keep levels <= ~12 for 10^4-10^5 cohorts.
  int levels = 8;
  // Per-report randomized response budget; <= 0 disables.
  double epsilon = 0.0;
};

class RangeTreeResult {
 public:
  RangeTreeResult(int levels, std::vector<std::vector<double>> fractions,
                  std::vector<std::vector<int64_t>> counts);

  int levels() const { return levels_; }
  // Estimated probability mass of node `v` at level `level`
  // (level in [1, levels], v in [0, 2^level)). Unbiased; may be slightly
  // negative under DP noise.
  double NodeFraction(int level, uint64_t v) const;
  int64_t NodeReports(int level, uint64_t v) const;

  // q-quantile (q in [0, 1]) in codeword space by hierarchical descent,
  // clipping negative masses and renormalizing per node.
  double Quantile(double q) const;

 private:
  int levels_;
  // fractions_[L-1][v] for levels 1..levels.
  std::vector<std::vector<double>> fractions_;
  std::vector<std::vector<int64_t>> counts_;
};

// Runs the one-bit dyadic protocol over the population. Codewords must be
// < 2^levels. Cells are sampled uniformly across levels and uniformly
// within a level.
RangeTreeResult EstimateRangeTree(const std::vector<uint64_t>& codewords,
                                  const RangeTreeConfig& config, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_CORE_RANGE_TREE_H_
