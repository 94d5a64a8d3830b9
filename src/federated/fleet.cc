#include "federated/fleet.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Fleet-window metrics are kStable: the fleet simulation is fully seeded
// and its clock is the simulated LatencyModel clock.
struct FleetInstruments {
  obs::Counter* windows;
  obs::Counter* readings;
  obs::Histogram* window_minutes;
};

const FleetInstruments& GetFleetInstruments() {
  static const FleetInstruments instruments = [] {
    obs::Registry& r = obs::Registry::Default();
    const obs::Determinism s = obs::Determinism::kStable;
    FleetInstruments i;
    i.windows = r.GetCounter("bitpush_fleet_windows_total",
                             "Fleet collection windows executed.", s);
    i.readings = r.GetCounter("bitpush_fleet_readings_total",
                              "Device readings collected across windows.", s);
    i.window_minutes = r.GetHistogram(
        "bitpush_fleet_window_sim_minutes",
        "Simulated window duration on the LatencyModel clock (minutes).",
        obs::SimMinutesBounds(), s);
    return i;
  }();
  return instruments;
}

}  // namespace

FleetSimulator::FleetSimulator(const FleetConfig& config, uint64_t seed)
    : config_(config),
      rng_(seed),
      seed_(seed),
      fault_plan_(seed, config.report_faults) {
  BITPUSH_CHECK_GE(config_.devices, 1);
  BITPUSH_CHECK_GE(config_.availability_base, 0.0);
  BITPUSH_CHECK_GE(config_.availability_amplitude, 0.0);
  BITPUSH_CHECK(!(config_.report_deadline_minutes < 0.0))
      << "report_deadline_minutes must be non-negative";
}

void FleetSimulator::AdvanceHours(double hours) {
  BITPUSH_CHECK_GE(hours, 0.0);
  hour_ += hours;
}

double FleetSimulator::Availability() const {
  const double cycle = std::sin(2.0 * std::numbers::pi * hour_ / 24.0);
  return std::clamp(
      config_.availability_base + config_.availability_amplitude * cycle,
      0.05, 1.0);
}

void FleetSimulator::ScaleMetric(double factor) {
  BITPUSH_CHECK_GT(factor, 0.0);
  metric_scale_ *= factor;
}

std::vector<double> FleetSimulator::CollectWindow(int64_t max_cohort) {
  BITPUSH_CHECK_GE(max_cohort, 0);
  const double availability = Availability();
  const int64_t window = ++window_index_;
  obs::Span span("collect_window", "fleet");
  span.AddNumeric("window", static_cast<double>(window));
  std::vector<double> readings;
  for (int64_t device = 0; device < config_.devices; ++device) {
    if (max_cohort > 0 &&
        static_cast<int64_t>(readings.size()) >= max_cohort) {
      break;
    }
    if (!rng_.NextBernoulli(availability)) continue;
    // Generate the reading before deciding its fate so the main RNG stream
    // is identical with and without fault injection (the device did the
    // work either way; the fault strikes the report in flight).
    const double reading =
        metric_scale_ * GenerateMetric(config_.metric, 1, rng_).front();
    bool lost = false;
    switch (fault_plan_.DecideAttempt(window, device, 0)) {
      case FaultType::kNone:
        break;
      case FaultType::kMidRoundDropout:
        ++fault_stats_.injected_dropouts;
        lost = true;
        break;
      case FaultType::kStraggler:
        ++fault_stats_.injected_stragglers;
        if (std::isfinite(config_.report_deadline_minutes)) {
          ++fault_stats_.late_reports_rejected;
          lost = true;
        } else {
          ++fault_stats_.late_reports_accepted;
        }
        break;
      case FaultType::kCorruptMessage:
        // The monitoring transport integrity-checks frames and drops any
        // that fail, so a corrupted reading never reaches the monitor.
        ++fault_stats_.injected_corruptions;
        ++fault_stats_.corrupt_reports_rejected;
        lost = true;
        break;
      case FaultType::kTruncateMessage:
        ++fault_stats_.injected_truncations;
        ++fault_stats_.truncated_reports_rejected;
        lost = true;
        break;
      case FaultType::kRoundBoundaryCrash:
        ++fault_stats_.injected_crashes;
        lost = true;
        break;
    }
    if (!lost) readings.push_back(reading);
  }
  const FleetInstruments& obs = GetFleetInstruments();
  obs.windows->Increment();
  obs.readings->Add(static_cast<int64_t>(readings.size()));
  span.AddNumeric("readings", static_cast<double>(readings.size()));
  if (config_.model_latency) {
    // A fresh per-window generator (never the main stream) keeps clean-run
    // determinism: enabling latency modelling does not shift readings.
    Rng latency_rng(seed_ ^
                    (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(window)));
    last_window_minutes_ = SampleCollectionMinutes(
        config_.latency, static_cast<int64_t>(readings.size()), latency_rng);
    obs.window_minutes->Observe(last_window_minutes_);
    span.set_sim_minutes(last_window_minutes_);
  }
  return readings;
}

}  // namespace bitpush
