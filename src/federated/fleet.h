// Fleet simulation over time.
//
// Section 4.3's deployment observations concern a fleet monitored over
// months: device availability varies ("their network connection can be
// unreliable"), metrics drift or regress, and collection windows run on a
// schedule. FleetSimulator models a device population with a diurnal
// availability cycle and an adjustable metric scale, so the windowed
// monitoring pipeline (federated/monitor.h) can be exercised end to end.
//
// Report-time failures are injected through the fault layer
// (federated/faults.h): a reachable device's reading can be lost mid-round,
// straggle past the window's report deadline, or arrive in a corrupt or
// truncated frame. At this layer the transport rejects corrupt and
// truncated frames outright (the monitor never ingests garbled values);
// all injections and rejections accumulate in fault_stats(). A lost
// reading is not re-requested: a window takes one attempt per reachable
// device. Per-window collection timing comes from the latency model when
// model_latency is on.

#ifndef BITPUSH_FEDERATED_FLEET_H_
#define BITPUSH_FEDERATED_FLEET_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "federated/faults.h"
#include "federated/latency.h"
#include "federated/telemetry.h"
#include "rng/rng.h"

namespace bitpush {

struct FleetConfig {
  int64_t devices = 10000;
  MetricFamily metric = MetricFamily::kLatencyMs;
  // Availability oscillates as base + amplitude * sin(2*pi*hour/24),
  // clamped to [0.05, 1].
  double availability_base = 0.5;
  double availability_amplitude = 0.3;
  // Per-report fault rates, decided deterministically per (window, device)
  // from the simulator seed. All-zero rates disable injection.
  FaultRates report_faults;
  // Straggler cutoff: finite means straggler reports miss the window and
  // are rejected; infinity accepts (and counts) them.
  double report_deadline_minutes = std::numeric_limits<double>::infinity();
  // Collection-latency model driving last_window_minutes().
  LatencyModel latency;
  bool model_latency = false;
};

class FleetSimulator {
 public:
  FleetSimulator(const FleetConfig& config, uint64_t seed);

  // Advances the simulated clock.
  void AdvanceHours(double hours);
  double hour() const { return hour_; }

  // Current fraction of the fleet reachable by the coordinator.
  double Availability() const;

  // Multiplies the metric scale from now on (e.g. 20.0 simulates a
  // regression inflating the metric 20x).
  void ScaleMetric(double factor);
  double metric_scale() const { return metric_scale_; }

  // Collects one window: each device is independently reachable with
  // probability Availability(); reachable devices contribute one fresh
  // metric reading (scaled by the current metric scale), capped at
  // `max_cohort` (0 = no cap). Readings lost to injected report-time
  // faults are counted in fault_stats() and excluded from the result.
  std::vector<double> CollectWindow(int64_t max_cohort);

  // Cumulative fault injections and transport reactions across windows.
  const FaultStats& fault_stats() const { return fault_stats_; }
  // Sampled collection time of the most recent window (0 until a window
  // has run with model_latency enabled).
  double last_window_minutes() const { return last_window_minutes_; }
  int64_t windows_collected() const { return window_index_; }

 private:
  FleetConfig config_;
  Rng rng_;
  uint64_t seed_;
  FaultPlan fault_plan_;
  FaultStats fault_stats_;
  int64_t window_index_ = 0;
  double last_window_minutes_ = 0.0;
  double hour_ = 0.0;
  double metric_scale_ = 1.0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_FLEET_H_
