// Federated debugging (Section 4.3): "diagnosis of problematic issues is
// complicated by the inability to read distributed private data." The only
// artifact the server holds is the per-bit histogram — and it turns out to
// carry rich diagnostics. This module inspects pooled bit means and flags
// the pathologies the paper reports from deployment:
//
//   * constant metrics ("some metrics/features gathered turn out to be
//     constant, making mean and variance estimation moot"),
//   * saturation — mass piled at the clipping ceiling 2^b - 1, the
//     signature of an under-sized bit width for a heavy-tailed metric,
//   * all-zero metrics (dead counters / broken instrumentation),
//   * vacuous high-order bits (b chosen too large; wasted samples),
//   * noise domination under DP (every bit mean within the noise floor).
//
// It also recommends a bit width from a pilot round, the "deciding the
// number of bits" step of Section 4.3.

#ifndef BITPUSH_FEDERATED_DEBUGGING_H_
#define BITPUSH_FEDERATED_DEBUGGING_H_

#include <string>
#include <vector>

#include "core/bit_pushing.h"
#include "ldp/randomized_response.h"

namespace bitpush {

struct DistributionDiagnostics {
  // Index of the highest informative bit (mean above the noise floor);
  // -1 when nothing is informative.
  int highest_used_bit = -1;
  // Every observed bit mean is (within tolerance) 0 or 1: the metric is a
  // single constant across the cohort.
  bool constant_metric = false;
  // All observed bit means ~0: the metric is identically zero.
  bool all_zero = false;
  // The top bits are mostly 1: values are piling up at the clipping
  // ceiling; the configured bit width truncates real signal.
  bool saturated = false;
  // Fraction of configured bits that carry no information — high values
  // mean the width is oversized and samples are being wasted.
  double vacuous_bit_fraction = 0.0;
  // Under DP: no bit rises above the per-bit noise floor; estimates from
  // this round are meaningless.
  bool noise_dominated = false;
  // Human-readable one-line summaries of everything flagged.
  std::vector<std::string> findings;
};

// Inspects a pooled histogram. `epsilon` must match what the reports were
// perturbed with (<= 0 for none). The thresholds are constants in
// debugging.cc.
DistributionDiagnostics DiagnoseDistribution(const BitHistogram& histogram,
                                             double epsilon);

// Recommends a bit width from pilot-round diagnostics: the highest used
// bit plus `headroom_bits` of margin, clamped to [1, pilot width]. Returns
// the pilot width unchanged when the pilot saturated (the true magnitude
// is unknown — widen, don't shrink).
int RecommendBitWidth(const DistributionDiagnostics& diagnostics,
                      int pilot_bits, int headroom_bits = 1);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_DEBUGGING_H_
