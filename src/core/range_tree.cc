#include "core/range_tree.h"

#include <algorithm>
#include <cmath>

#include "ldp/randomized_response.h"
#include "rng/qmc.h"
#include "util/check.h"

namespace bitpush {
namespace {

// Flattened cell layout: cells of level L (1-based) start at
// offset(L) = 2^1 + ... + 2^{L-1} = 2^L - 2.
int64_t LevelOffset(int level) { return (int64_t{1} << level) - 2; }

}  // namespace

RangeTreeResult::RangeTreeResult(
    int levels, std::vector<std::vector<double>> fractions,
    std::vector<std::vector<int64_t>> counts)
    : levels_(levels),
      fractions_(std::move(fractions)),
      counts_(std::move(counts)) {
  BITPUSH_CHECK_EQ(fractions_.size(), static_cast<size_t>(levels_));
  BITPUSH_CHECK_EQ(counts_.size(), static_cast<size_t>(levels_));
}

double RangeTreeResult::NodeFraction(int level, uint64_t v) const {
  BITPUSH_CHECK_GE(level, 1);
  BITPUSH_CHECK_LE(level, levels_);
  const std::vector<double>& level_fractions =
      fractions_[static_cast<size_t>(level - 1)];
  BITPUSH_CHECK_LT(v, level_fractions.size());
  return level_fractions[v];
}

// bitpush-lint: allow(unreached-function): seam into the estimator's per-node report counts, which RangeTreeTest.EveryClientReportsOnce sums
int64_t RangeTreeResult::NodeReports(int level, uint64_t v) const {
  BITPUSH_CHECK_GE(level, 1);
  BITPUSH_CHECK_LE(level, levels_);
  const std::vector<int64_t>& level_counts =
      counts_[static_cast<size_t>(level - 1)];
  BITPUSH_CHECK_LT(v, level_counts.size());
  return level_counts[v];
}

double RangeTreeResult::Quantile(double q) const {
  BITPUSH_CHECK_GE(q, 0.0);
  BITPUSH_CHECK_LE(q, 1.0);
  double target = q;
  uint64_t node = 0;
  for (int level = 1; level <= levels_; ++level) {
    const double left = std::max(0.0, NodeFraction(level, node * 2));
    const double right = std::max(0.0, NodeFraction(level, node * 2 + 1));
    const double mass = left + right;
    const double p_left = mass > 0.0 ? left / mass : 0.5;
    if (target <= p_left || p_left >= 1.0) {
      target = p_left > 0.0 ? target / p_left : 0.0;
      node = node * 2;
    } else {
      target = (target - p_left) / (1.0 - p_left);
      node = node * 2 + 1;
    }
    target = std::clamp(target, 0.0, 1.0);
  }
  // Interpolate within the leaf codeword.
  return static_cast<double>(node) + target;
}

RangeTreeResult EstimateRangeTree(const std::vector<uint64_t>& codewords,
                                  const RangeTreeConfig& config, Rng& rng) {
  BITPUSH_CHECK_GE(config.levels, 1);
  BITPUSH_CHECK_LE(config.levels, 20);
  BITPUSH_CHECK(!codewords.empty());
  const uint64_t domain = uint64_t{1} << config.levels;
  for (const uint64_t c : codewords) {
    BITPUSH_CHECK_LT(c, domain) << "codeword outside the tree domain";
  }
  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.epsilon);

  // Uniform probability over levels, uniform over nodes within a level.
  const int64_t total_cells = LevelOffset(config.levels + 1);
  std::vector<double> cell_probabilities(
      static_cast<size_t>(total_cells), 0.0);
  for (int level = 1; level <= config.levels; ++level) {
    const int64_t nodes = int64_t{1} << level;
    const double per_cell =
        1.0 / (static_cast<double>(config.levels) *
               static_cast<double>(nodes));
    for (int64_t v = 0; v < nodes; ++v) {
      cell_probabilities[static_cast<size_t>(LevelOffset(level) + v)] =
          per_cell;
    }
  }

  const std::vector<int> assignment = AssignBitsCentral(
      static_cast<int64_t>(codewords.size()), cell_probabilities, rng);

  std::vector<std::vector<int64_t>> ones(
      static_cast<size_t>(config.levels));
  std::vector<std::vector<int64_t>> totals(
      static_cast<size_t>(config.levels));
  for (int level = 1; level <= config.levels; ++level) {
    ones[static_cast<size_t>(level - 1)].assign(
        static_cast<size_t>(int64_t{1} << level), 0);
    totals[static_cast<size_t>(level - 1)].assign(
        static_cast<size_t>(int64_t{1} << level), 0);
  }

  for (size_t i = 0; i < codewords.size(); ++i) {
    const int64_t cell = assignment[i];
    // Recover (level, node) from the flat cell index.
    int level = 1;
    while (LevelOffset(level + 1) <= cell) ++level;
    const uint64_t node = static_cast<uint64_t>(cell - LevelOffset(level));
    // Membership bit: does my value fall in this node's interval?
    const uint64_t member_node = codewords[i] >> (config.levels - level);
    const int bit = member_node == node ? 1 : 0;
    ones[static_cast<size_t>(level - 1)][node] += rr.Apply(bit, rng);
    ++totals[static_cast<size_t>(level - 1)][node];
  }

  std::vector<std::vector<double>> fractions(
      static_cast<size_t>(config.levels));
  for (int level = 1; level <= config.levels; ++level) {
    const size_t index = static_cast<size_t>(level - 1);
    fractions[index].assign(totals[index].size(), 0.0);
    for (size_t v = 0; v < totals[index].size(); ++v) {
      if (totals[index][v] == 0) continue;
      fractions[index][v] =
          rr.Unbias(static_cast<double>(ones[index][v]) /
                    static_cast<double>(totals[index][v]));
    }
  }
  return RangeTreeResult(config.levels, std::move(fractions),
                         std::move(totals));
}

}  // namespace bitpush
