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
  if (config_.resilience.retry.enabled()) {
    retry_schedule_.emplace(config_.resilience.seed, config_.resilience.retry);
  }
  if (config_.resilience.breaker.enabled()) {
    health_.emplace(config_.resilience.breaker);
  }
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
  const bool retries_on = retry_schedule_.has_value();
  // Serial virtual clock for the window, in LatencyModel minutes: each
  // transport attempt costs one expected single-report collection, each
  // scheduled retry adds its backoff. The deadline budget bounds the clock.
  const double service_minutes =
      retries_on ? ExpectedCollectionMinutes(config_.resilience.latency, 1)
                 : 0.0;
  const double budget_minutes = config_.resilience.budget.minutes;
  double clock = 0.0;
  double backoff_spent = 0.0;
  int64_t window_retries = 0;
  if (health_.has_value()) health_->BeginRound();
  std::vector<int64_t> succeeded_devices;
  std::vector<int64_t> failed_devices;
  std::vector<double> readings;
  for (int64_t device = 0; device < config_.devices; ++device) {
    if (max_cohort > 0 &&
        static_cast<int64_t>(readings.size()) >= max_cohort) {
      break;
    }
    if (health_.has_value()) {
      // Quarantined devices are skipped before the availability draw: the
      // coordinator never contacts them, so they consume neither transport
      // attempts nor window budget.
      const AssignmentDecision decision = health_->Decision(device);
      if (decision == AssignmentDecision::kSkip) {
        ++retry_stats_.breaker_skips;
        continue;
      }
      if (decision == AssignmentDecision::kProbe) ++retry_stats_.breaker_probes;
    }
    if (!rng_.NextBernoulli(availability)) continue;
    // Generate the reading before deciding its fate so the main RNG stream
    // is identical with and without fault injection or resilience (the
    // device did the work either way; the fault strikes the report in
    // flight, and a retry retransmits the same reading).
    const double reading =
        metric_scale_ * GenerateMetric(config_.metric, 1, rng_).front();
    // Retransmits the reading on the deterministic backoff schedule until
    // it lands, a terminal fault kills it, or a retry cap / the window's
    // deadline budget denies the next attempt. Returns true when the next
    // attempt was scheduled.
    const auto try_schedule_retry = [&](int64_t attempt) {
      if (!retries_on) return false;
      const int64_t next = attempt + 1;
      if (next > config_.resilience.retry.max_retries_per_client) {
        ++retry_stats_.retries_exhausted;
        return false;
      }
      if (window_retries >= config_.resilience.retry.max_retries_per_round) {
        ++retry_stats_.retry_budget_denied;
        return false;
      }
      const double backoff =
          retry_schedule_->BackoffMinutes(window, device, next);
      if (clock + backoff + service_minutes > budget_minutes) {
        ++retry_stats_.deadline_denied;
        return false;
      }
      clock += backoff;
      backoff_spent += backoff;
      retry_stats_.backoff_minutes += backoff;
      ++retry_stats_.retransmits_requested;
      ++window_retries;
      return true;
    };
    bool lost = false;
    bool terminal = false;
    int64_t attempt = 0;
    while (true) {
      clock += service_minutes;
      bool retryable_loss = false;
      switch (fault_plan_.DecideAttempt(window, device, attempt)) {
        case FaultType::kNone:
          break;
        case FaultType::kMidRoundDropout:
          ++fault_stats_.injected_dropouts;
          retryable_loss = true;
          break;
        case FaultType::kStraggler:
          ++fault_stats_.injected_stragglers;
          if (std::isfinite(config_.report_deadline_minutes)) {
            ++fault_stats_.late_reports_rejected;
            lost = true;
            terminal = true;  // a late report is final; nothing to resend
          } else {
            ++fault_stats_.late_reports_accepted;
          }
          break;
        case FaultType::kCorruptMessage:
          // The monitoring transport integrity-checks frames and drops any
          // that fail, so a corrupted reading never reaches the monitor.
          ++fault_stats_.injected_corruptions;
          ++fault_stats_.corrupt_reports_rejected;
          retryable_loss = true;
          break;
        case FaultType::kTruncateMessage:
          ++fault_stats_.injected_truncations;
          ++fault_stats_.truncated_reports_rejected;
          retryable_loss = true;
          break;
        case FaultType::kRoundBoundaryCrash:
          ++fault_stats_.injected_crashes;
          lost = true;
          terminal = true;  // the device is gone for this window
          break;
      }
      if (terminal) break;
      if (!retryable_loss) {
        if (attempt > 0) ++retry_stats_.retry_reports_recovered;
        break;
      }
      lost = true;
      if (!try_schedule_retry(attempt)) break;
      lost = false;
      ++attempt;
    }
    if (health_.has_value()) {
      (lost ? failed_devices : succeeded_devices).push_back(device);
    }
    if (lost) continue;
    readings.push_back(reading);
  }
  if (health_.has_value()) {
    const int64_t opens_before = health_->opens();
    const int64_t closes_before = health_->closes();
    health_->ObserveRound(window, succeeded_devices, failed_devices);
    retry_stats_.breaker_opens += health_->opens() - opens_before;
    retry_stats_.breaker_closes += health_->closes() - closes_before;
  }
  retry_stats_.elapsed_minutes += clock;
  const FleetInstruments& obs = GetFleetInstruments();
  obs.windows->Increment();
  obs.readings->Add(static_cast<int64_t>(readings.size()));
  obs.window_minutes->Observe(clock);
  span.set_sim_minutes(clock);
  span.AddNumeric("readings", static_cast<double>(readings.size()));
  if (config_.model_latency) {
    // A fresh per-window generator (never the main stream) keeps clean-run
    // determinism: enabling latency modelling does not shift readings.
    Rng latency_rng(seed_ ^
                    (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(window)));
    last_window_minutes_ =
        SampleCollectionMinutes(config_.latency,
                                static_cast<int64_t>(readings.size()),
                                latency_rng) +
        backoff_spent;
  }
  return readings;
}

}  // namespace bitpush
