// Device-health telemetry simulation for the deployment scenario of
// Section 4.3: metric families with the value distributions seen in the
// wild (heavy tails, extreme outliers, constants), plus the upper-bound
// monitor the paper proposes for heavy-tailed / non-stationary data
// ("report an upper bound on the aggregated samples, and flag when this
// bound changes significantly over time").

#ifndef BITPUSH_FEDERATED_TELEMETRY_H_
#define BITPUSH_FEDERATED_TELEMETRY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rng/rng.h"

namespace bitpush {

enum class MetricFamily {
  kLatencyMs,        // lognormal: typical tens of ms, long tail
  kCrashCount,       // mostly 0/1 with rare huge outliers (Section 4.3)
  kBatteryDrainPct,  // near-normal, bounded [0, 100]
  kQueueDepth,       // exponential
  kAppVersion,       // constant across the fleet (degenerate)
};

// Human-readable family name for experiment output.
std::string MetricFamilyName(MetricFamily family);

// Generates `n` per-device readings of the given metric family.
std::vector<double> GenerateMetric(MetricFamily family, int64_t n, Rng& rng);

// The highest bit index whose estimated mean is at least `threshold` — the
// protocol's view of the data's magnitude (b_max). Returns -1 when no bit
// qualifies.
int EstimateHighestUsedBit(const std::vector<double>& bit_means,
                           double threshold);

// Flags windows whose estimated upper bound (b_max) moves by at least
// `flag_shift_bits` relative to the previous window: the heavy-tail /
// non-stationarity signal of Section 1.1.
class UpperBoundMonitor {
 public:
  explicit UpperBoundMonitor(int flag_shift_bits = 2);

  // Observes one window's b_max estimate. Returns true when the shift from
  // the previous window is >= flag_shift_bits. The first window never
  // flags.
  bool ObserveWindow(int b_max);

  int last_bound() const { return last_bound_; }
  int64_t flags_raised() const { return flags_raised_; }

 private:
  int flag_shift_bits_;
  int last_bound_ = -1;
  bool has_history_ = false;
  int64_t flags_raised_ = 0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_TELEMETRY_H_
