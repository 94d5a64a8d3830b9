#include "federated/telemetry.h"

#include <algorithm>
#include <cmath>

#include "rng/distributions.h"
#include "util/check.h"

namespace bitpush {

std::string MetricFamilyName(MetricFamily family) {
  switch (family) {
    case MetricFamily::kLatencyMs:
      return "latency_ms";
    case MetricFamily::kCrashCount:
      return "crash_count";
    case MetricFamily::kBatteryDrainPct:
      return "battery_drain_pct";
    case MetricFamily::kQueueDepth:
      return "queue_depth";
    case MetricFamily::kAppVersion:
      return "app_version";
  }
  BITPUSH_CHECK(false) << "unreachable";
  return "";
}

std::vector<double> GenerateMetric(MetricFamily family, int64_t n, Rng& rng) {
  BITPUSH_CHECK_GE(n, 0);
  std::vector<double> values;
  values.reserve(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    double v = 0.0;
    switch (family) {
      case MetricFamily::kLatencyMs:
        // Median ~55ms, long right tail into seconds.
        v = SampleLognormal(rng, 4.0, 0.9);
        break;
      case MetricFamily::kCrashCount:
        // "most typical values are 0 and 1 ... some rare clients report
        // values that are orders of magnitude higher."
        if (rng.NextBernoulli(0.002)) {
          v = SamplePareto(rng, 100.0, 1.05);
        } else if (rng.NextBernoulli(0.05)) {
          v = static_cast<double>(2 + rng.NextBelow(8));
        } else {
          v = static_cast<double>(rng.NextBit());
        }
        break;
      case MetricFamily::kBatteryDrainPct:
        v = std::clamp(SampleNormal(rng, 22.0, 7.0), 0.0, 100.0);
        break;
      case MetricFamily::kQueueDepth:
        v = SampleExponential(rng, 6.0);
        break;
      case MetricFamily::kAppVersion:
        v = 42.0;
        break;
    }
    values.push_back(v);
  }
  return values;
}

int EstimateHighestUsedBit(const std::vector<double>& bit_means,
                           double threshold) {
  for (int j = static_cast<int>(bit_means.size()) - 1; j >= 0; --j) {
    if (bit_means[static_cast<size_t>(j)] >= threshold) return j;
  }
  return -1;
}

UpperBoundMonitor::UpperBoundMonitor(int flag_shift_bits)
    : flag_shift_bits_(flag_shift_bits) {
  BITPUSH_CHECK_GE(flag_shift_bits, 1);
}

bool UpperBoundMonitor::ObserveWindow(int b_max) {
  const bool flag =
      has_history_ && std::abs(b_max - last_bound_) >= flag_shift_bits_;
  if (flag) ++flags_raised_;
  last_bound_ = b_max;
  has_history_ = true;
  return flag;
}

}  // namespace bitpush
