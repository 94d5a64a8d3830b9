#include "federated/monitor.h"

#include <cmath>

#include "obs/metrics.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Monitor windows run on seeded inputs, so their totals are kStable.
struct MonitorInstruments {
  obs::Counter* windows;
  obs::Counter* skipped;
  obs::Counter* flagged;
};

const MonitorInstruments& GetMonitorInstruments() {
  static const MonitorInstruments instruments = [] {
    obs::Registry& r = obs::Registry::Default();
    const obs::Determinism s = obs::Determinism::kStable;
    MonitorInstruments i;
    i.windows = r.GetCounter("bitpush_monitor_windows_total",
                             "Windows ingested by metric monitors.", s);
    i.skipped = r.GetCounter(
        "bitpush_monitor_windows_skipped_total",
        "Windows skipped because the cohort was below the privacy minimum.",
        s);
    i.flagged = r.GetCounter("bitpush_monitor_windows_flagged_total",
                             "Windows that raised a bound or drift flag.", s);
    return i;
  }();
  return instruments;
}

}  // namespace

MetricMonitor::MetricMonitor(const FixedPointCodec& codec,
                             const MonitorConfig& config)
    : codec_(codec),
      config_(config),
      bound_monitor_(config.flag_shift_bits) {
  BITPUSH_CHECK_EQ(config_.protocol.bits, codec_.bits());
  BITPUSH_CHECK_GE(config_.min_window_size, 2);
  BITPUSH_CHECK_GE(config_.drift_threshold, 0.0);
}

WindowSummary MetricMonitor::IngestWindow(const std::vector<double>& values,
                                          Rng& rng) {
  WindowSummary summary;
  summary.window_index = static_cast<int64_t>(history_.size());
  summary.clients = static_cast<int64_t>(values.size());
  const MonitorInstruments& obs = GetMonitorInstruments();
  obs.windows->Increment();
  if (summary.clients < config_.min_window_size) {
    summary.skipped = true;
    obs.skipped->Increment();
    history_.push_back(summary);
    return summary;
  }

  const AdaptiveResult result = RunAdaptiveBitPushing(
      codec_.EncodeAll(values), config_.protocol, rng);
  summary.estimate = codec_.Decode(result.estimate_codeword);
  summary.b_max = EstimateHighestUsedBit(result.final_means,
                                         config_.bmax_mean_threshold);
  summary.bound_flagged = bound_monitor_.ObserveWindow(summary.b_max);

  if (config_.drift_threshold > 0.0 && trailing_estimate_count_ > 0) {
    const double trailing_mean =
        trailing_estimate_sum_ /
        static_cast<double>(trailing_estimate_count_);
    const double scale = std::max(std::abs(trailing_mean), 1e-12);
    summary.drift_flagged =
        std::abs(summary.estimate - trailing_mean) / scale >
        config_.drift_threshold;
  }
  trailing_estimate_sum_ += summary.estimate;
  ++trailing_estimate_count_;

  if (summary.bound_flagged || summary.drift_flagged) {
    ++windows_flagged_;
    obs.flagged->Increment();
  }
  history_.push_back(summary);
  return summary;
}

}  // namespace bitpush
