// Continuous metric monitoring across collection windows — the online use
// of bit-pushing described in Sections 1.1 and 4.3: estimate the mean each
// window, track the data's upper bound (b_max) and flag significant
// changes, and skip windows whose cohort is below the privacy minimum.

#ifndef BITPUSH_FEDERATED_MONITOR_H_
#define BITPUSH_FEDERATED_MONITOR_H_

#include <cstdint>
#include <vector>

#include "core/adaptive.h"
#include "core/fixed_point.h"
#include "federated/telemetry.h"
#include "rng/rng.h"

namespace bitpush {

struct MonitorConfig {
  // Per-window protocol parameters (bits must match the codec).
  AdaptiveConfig protocol;
  // A bit counts toward b_max when its estimated mean reaches this value.
  double bmax_mean_threshold = 0.02;
  // Shift in b_max (bits) that raises the upper-bound flag.
  int flag_shift_bits = 2;
  // Windows with fewer clients than this are skipped for privacy.
  int64_t min_window_size = 2;
  // Relative change of the estimate vs the trailing average that raises
  // the drift flag (0 disables).
  double drift_threshold = 0.0;
};

struct WindowSummary {
  int64_t window_index = 0;
  int64_t clients = 0;
  // True when the window was skipped (below min_window_size); no protocol
  // messages were exchanged and the remaining fields are unset.
  bool skipped = false;
  double estimate = 0.0;
  int b_max = -1;
  bool bound_flagged = false;
  bool drift_flagged = false;
};

class MetricMonitor {
 public:
  MetricMonitor(const FixedPointCodec& codec, const MonitorConfig& config);

  // Runs one collection window over `values` (one entry per reporting
  // client) and appends the summary to history().
  WindowSummary IngestWindow(const std::vector<double>& values, Rng& rng);

  const std::vector<WindowSummary>& history() const { return history_; }
  int64_t windows_flagged() const { return windows_flagged_; }

 private:
  FixedPointCodec codec_;
  MonitorConfig config_;
  UpperBoundMonitor bound_monitor_;
  std::vector<WindowSummary> history_;
  double trailing_estimate_sum_ = 0.0;
  int64_t trailing_estimate_count_ = 0;
  int64_t windows_flagged_ = 0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_MONITOR_H_
