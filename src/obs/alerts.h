// Declarative in-process alert engine, evaluated on the simulated clock.
// The paper's deployment framing (§4.3) makes server-side telemetry the
// only debuggable artifact of a private collection; the alert engine is
// the layer an operator would actually page on, evaluated per campaign
// tick with a firing/resolved lifecycle:
//
//   privacy_burn_rate    — budget burn with time-to-exhaustion projection
//   retry_storm          — retry-layer scheduling spike within one tick
//   shard_quorum_at_risk — delivered shards at or below the quorum margin
//   recovery_divergence  — torn tail / replay anomaly observed (latched)
//
// Determinism contract: each rule carries the metrics registry's
// kStable/kVolatile tag (AlertRuleDeterminism). kStable rules consume only
// recovery-stable inputs (DurableCampaignRunner::meter_by_tick()), so
// their transition log — the fired-alert timeline — is byte-identical
// across a clean run, a rerun, and a crash-recovered rerun of the same
// seeded campaign (AlertTimelineText; pinned by tests/determinism_test.cc
// and a golden under tests/golden/). kVolatile rules may depend on
// process-local state (live retry counters, delivery schedules) and are
// excluded from the deterministic timeline.
//
// Every evaluation refreshes the Prometheus `bitpush_alert_state_<rule>`
// gauge family (1 = firing) and every transition emits a kAlertFired /
// kAlertResolved flight-recorder event (obs/events.h). The transition
// events are tagged kVolatile even for kStable rules: their position in
// the event stream relative to replayed round/meter events shifts under
// recovery, so the byte-stable timeline artifact is the engine's own log,
// not the ring.

#ifndef BITPUSH_OBS_ALERTS_H_
#define BITPUSH_OBS_ALERTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace bitpush::obs {

enum class AlertRule {
  kPrivacyBurnRate,
  kRetryStorm,
  kShardQuorumAtRisk,
  kRecoveryDivergence,
};

inline constexpr int kAlertRuleCount = 4;

const char* AlertRuleName(AlertRule rule);
Determinism AlertRuleDeterminism(AlertRule rule);

// The rules' thresholds.
// privacy_burn_rate fires when the projected ticks-to-exhaustion at the
// current per-tick burn rate drops to this horizon (or any charge is
// denied); it resolves on the first tick with no new spend and no new
// denials.
inline constexpr double kBurnRateHorizonTicks = 2.0;
// retry_storm fires when one tick schedules at least this many retries;
// the flight recorder's kRetryStorm event uses it for one round.
inline constexpr int64_t kRetryStormThreshold = 8;
// shard_quorum_at_risk fires when delivered - quorum_min <= margin.
inline constexpr int64_t kQuorumMargin = 0;

// One evaluation's inputs. Cumulative fields are totals through the end of
// the tick; the engine differences them against the previous evaluation.
// kStable rules must be fed recovery-stable values (for the meter, the
// per-tick trajectory DurableCampaignRunner::meter_by_tick() reconstructs
// through crashes); kVolatile rules may consume live process counters.
struct CampaignAlertInputs {
  int64_t tick = 0;
  // Privacy meter, cumulative. bits_budget <= 0 disables the burn-rate
  // rule (unmetered campaign).
  int64_t bits_spent = 0;
  int64_t denied_charges = 0;
  int64_t bits_budget = 0;
  // Retry layer, cumulative retries scheduled (live process counters).
  int64_t retries_scheduled = 0;
  // Shard delivery for this tick; shards_delivered = -1 when unsharded.
  int64_t shards_delivered = -1;
  int64_t shards_total = 0;
  int64_t quorum_min = 0;
  // A recovery anomaly (torn journal tail, replay divergence) was
  // observed; latches the recovery_divergence rule for the campaign.
  bool recovery_divergence = false;
};

struct AlertTransition {
  AlertRule rule = AlertRule::kPrivacyBurnRate;
  bool fired = false;  // false = resolved
  int64_t tick = 0;
  std::string detail;
};

// Evaluates the rule set against per-tick inputs and tracks the
// firing/resolved lifecycle. Deterministic: no wall clock, no RNG — the
// transition log is a pure function of the input sequence.
class AlertEngine {
 public:
  static AlertEngine& Default();

  // Evaluates every rule, returns the transitions this tick caused (empty
  // when no rule changed state), appends them to transitions(), refreshes
  // the bitpush_alert_state gauges, and emits flight-recorder events.
  std::vector<AlertTransition> EvaluateCampaignTick(
      const CampaignAlertInputs& inputs);

  bool firing(AlertRule rule) const;
  int64_t fired_total() const { return fired_total_; }
  int64_t resolved_total() const { return resolved_total_; }
  const std::vector<AlertTransition>& transitions() const {
    return transitions_;
  }

 private:
  void Transition(AlertRule rule, bool fire, int64_t tick,
                  std::string detail, std::vector<AlertTransition>* out);
  void RefreshGauges();

  bool firing_[kAlertRuleCount] = {};
  bool evaluated_ = false;
  CampaignAlertInputs last_;
  int64_t fired_total_ = 0;
  int64_t resolved_total_ = 0;
  std::vector<AlertTransition> transitions_;
};

// The deterministic fired-alert timeline: one line per transition of a
// kStable rule, canonical formatting. Byte-identical across clean, rerun,
// and crash-recovered runs of the same seeded campaign.
std::string AlertTimelineText(const AlertEngine& engine =
                                  AlertEngine::Default());

}  // namespace bitpush::obs

#endif  // BITPUSH_OBS_ALERTS_H_
