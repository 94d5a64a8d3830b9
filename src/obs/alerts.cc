#include "obs/alerts.h"

#include <string>
#include <utility>

#include "obs/events.h"
#include "util/check.h"

namespace bitpush::obs {

namespace {

size_t RuleIndex(AlertRule rule) {
  const size_t index = static_cast<size_t>(rule);
  BITPUSH_CHECK_LT(index, static_cast<size_t>(kAlertRuleCount));
  return index;
}

}  // namespace

const char* AlertRuleName(AlertRule rule) {
  switch (rule) {
    case AlertRule::kPrivacyBurnRate:
      return "privacy_burn_rate";
    case AlertRule::kRetryStorm:
      return "retry_storm";
    case AlertRule::kShardQuorumAtRisk:
      return "shard_quorum_at_risk";
    case AlertRule::kRecoveryDivergence:
      return "recovery_divergence";
  }
  return "unknown";
}

// Rule determinism classes. privacy_burn_rate is the one kStable rule: its
// inputs (the per-tick meter trajectory) are reconstructed exactly through
// crashes, so its timeline is part of the byte-identical replay contract.
// The rest consume process-local state — live retry counters, this
// process's delivery schedule, recovery artifacts — which legitimately
// differs between a clean run and a recovered one.
Determinism AlertRuleDeterminism(AlertRule rule) {
  switch (rule) {
    case AlertRule::kPrivacyBurnRate:
      return Determinism::kStable;
    case AlertRule::kRetryStorm:
    case AlertRule::kShardQuorumAtRisk:
    case AlertRule::kRecoveryDivergence:
      return Determinism::kVolatile;
  }
  return Determinism::kVolatile;
}

AlertEngine& AlertEngine::Default() {
  static AlertEngine* engine = new AlertEngine();  // leaked singleton
  return *engine;
}

bool AlertEngine::firing(AlertRule rule) const {
  return firing_[RuleIndex(rule)];
}

void AlertEngine::Transition(AlertRule rule, bool fire, int64_t tick,
                             std::string detail,
                             std::vector<AlertTransition>* out) {
  firing_[RuleIndex(rule)] = fire;
  if (fire) {
    ++fired_total_;
  } else {
    ++resolved_total_;
  }
  AlertTransition transition;
  transition.rule = rule;
  transition.fired = fire;
  transition.tick = tick;
  transition.detail = std::move(detail);

  // The ring event is tagged kVolatile even for kStable rules: alert
  // evaluation happens per tick in the driver, after recovery has already
  // replayed earlier ticks' round/meter events, so its ring position is
  // not replay-stable. The byte-stable artifact is transitions() /
  // AlertTimelineText().
  EventArgs args;
  args.tick = tick;
  args.detail = std::string("rule=") + AlertRuleName(rule);
  if (!transition.detail.empty()) args.detail += " " + transition.detail;
  EmitEvent(fire ? EventType::kAlertFired : EventType::kAlertResolved,
            Determinism::kVolatile, std::move(args));

  transitions_.push_back(std::move(transition));
  if (out != nullptr) out->push_back(transitions_.back());
}

void AlertEngine::RefreshGauges() {
  if (!Enabled()) return;
  Registry& registry = Registry::Default();
  for (int i = 0; i < kAlertRuleCount; ++i) {
    const AlertRule rule = static_cast<AlertRule>(i);
    registry
        .GetGauge(std::string("bitpush_alert_state_") + AlertRuleName(rule),
                  "Alert rule state (1 = firing).",
                  AlertRuleDeterminism(rule))
        ->Set(firing_[i] ? 1.0 : 0.0);
  }
}

std::vector<AlertTransition> AlertEngine::EvaluateCampaignTick(
    const CampaignAlertInputs& inputs) {
  std::vector<AlertTransition> out;
  const int64_t bits_delta =
      evaluated_ ? inputs.bits_spent - last_.bits_spent : inputs.bits_spent;
  const int64_t denied_delta = evaluated_
                                   ? inputs.denied_charges -
                                         last_.denied_charges
                                   : inputs.denied_charges;
  const int64_t retries_delta =
      evaluated_ ? inputs.retries_scheduled - last_.retries_scheduled
                 : inputs.retries_scheduled;

  // privacy_burn_rate: project time-to-exhaustion at this tick's burn
  // rate; any denial means the budget wall was already hit.
  if (inputs.bits_budget > 0) {
    const bool burning = bits_delta > 0 || denied_delta > 0;
    bool at_risk = false;
    std::string detail;
    if (denied_delta > 0) {
      at_risk = true;
      detail = "budget exhausted: denied=" + std::to_string(denied_delta) +
               " spent=" + std::to_string(inputs.bits_spent) + "/" +
               std::to_string(inputs.bits_budget);
    } else if (bits_delta > 0) {
      const int64_t remaining = inputs.bits_budget - inputs.bits_spent;
      const double tte_ticks = static_cast<double>(remaining) /
                               static_cast<double>(bits_delta);
      if (tte_ticks <= kBurnRateHorizonTicks) {
        at_risk = true;
        detail = "tte_ticks=" + FormatStableDouble(tte_ticks) +
                 " spent=" + std::to_string(inputs.bits_spent) + "/" +
                 std::to_string(inputs.bits_budget);
      }
    }
    const bool was = firing_[RuleIndex(AlertRule::kPrivacyBurnRate)];
    if (at_risk && !was) {
      Transition(AlertRule::kPrivacyBurnRate, true, inputs.tick,
                 std::move(detail), &out);
    } else if (!burning && was) {
      Transition(AlertRule::kPrivacyBurnRate, false, inputs.tick,
                 "burn stopped: spent=" + std::to_string(inputs.bits_spent) +
                     "/" + std::to_string(inputs.bits_budget),
                 &out);
    }
  }

  // retry_storm: scheduling spike within one tick.
  {
    const bool storm = retries_delta >= kRetryStormThreshold;
    const bool was = firing_[RuleIndex(AlertRule::kRetryStorm)];
    if (storm && !was) {
      Transition(AlertRule::kRetryStorm, true, inputs.tick,
                 "retries_scheduled=" + std::to_string(retries_delta) +
                     " this tick (threshold " +
                     std::to_string(kRetryStormThreshold) + ")",
                 &out);
    } else if (!storm && was) {
      Transition(AlertRule::kRetryStorm, false, inputs.tick,
                 "retries_scheduled=" + std::to_string(retries_delta) +
                     " this tick",
                 &out);
    }
  }

  // shard_quorum_at_risk: delivered shards at or below the quorum margin.
  if (inputs.shards_delivered >= 0) {
    const bool at_risk =
        inputs.shards_delivered - inputs.quorum_min <= kQuorumMargin;
    const bool was = firing_[RuleIndex(AlertRule::kShardQuorumAtRisk)];
    const std::string detail =
        "delivered=" + std::to_string(inputs.shards_delivered) + "/" +
        std::to_string(inputs.shards_total) +
        " quorum_min=" + std::to_string(inputs.quorum_min);
    if (at_risk && !was) {
      Transition(AlertRule::kShardQuorumAtRisk, true, inputs.tick, detail,
                 &out);
    } else if (!at_risk && was) {
      Transition(AlertRule::kShardQuorumAtRisk, false, inputs.tick, detail,
                 &out);
    }
  }

  // recovery_divergence: latched for the campaign once observed.
  if (inputs.recovery_divergence &&
      !firing_[RuleIndex(AlertRule::kRecoveryDivergence)]) {
    Transition(AlertRule::kRecoveryDivergence, true, inputs.tick,
               "recovery anomaly observed (torn tail or replay divergence)",
               &out);
  }

  last_ = inputs;
  evaluated_ = true;
  RefreshGauges();
  return out;
}

std::string AlertTimelineText(const AlertEngine& engine) {
  std::string out = "# bitpush alert timeline v1\n";
  for (const AlertTransition& transition : engine.transitions()) {
    if (AlertRuleDeterminism(transition.rule) != Determinism::kStable) {
      continue;
    }
    out += "tick=" + std::to_string(transition.tick);
    out += transition.fired ? " fired " : " resolved ";
    out += AlertRuleName(transition.rule);
    if (!transition.detail.empty()) out += " " + transition.detail;
    out += "\n";
  }
  return out;
}

}  // namespace bitpush::obs
