#include "federated/obs_hooks.h"

#include "federated/campaign.h"
#include "federated/resilience.h"
#include "federated/server.h"
#include "obs/alerts.h"
#include "obs/events.h"
#include "obs/metrics.h"

namespace bitpush {
namespace {

using obs::Counter;
using obs::Determinism;
using obs::Gauge;
using obs::Histogram;
using obs::Registry;

struct RoundInstruments {
  Counter* rounds;
  Counter* contacted;
  Counter* responded;
  Counter* malformed;
  Counter* wire_requests;
  Counter* wire_reports;
  Counter* wire_private_bits;
  Counter* wire_payload_bytes;
  Counter* faults_injected;
  Counter* late_rejected;
  Counter* corrupt_rejected;
  Counter* truncated_rejected;
  Counter* recheckins_rejected;
  Counter* backfill_requests;
  Counter* backfill_reports;
  Counter* static_fallbacks;
  Counter* retries_scheduled;
  Counter* retransmits;
  Counter* retry_recovered;
  Counter* retries_exhausted;
  Counter* hedges_issued;
  Counter* hedge_reports;
  Counter* hedge_dedup_drops;
  Counter* breaker_skips;
  Counter* breaker_probes;
  Gauge* backoff_minutes;
  Histogram* round_minutes;
};

const RoundInstruments& GetRoundInstruments() {
  static const RoundInstruments instruments = [] {
    Registry& r = Registry::Default();
    const Determinism s = Determinism::kStable;
    RoundInstruments i;
    i.rounds = r.GetCounter("bitpush_rounds_total", "Rounds closed.", s);
    i.contacted = r.GetCounter("bitpush_round_contacted_total",
                               "Clients contacted across rounds.", s);
    i.responded = r.GetCounter("bitpush_round_responded_total",
                               "Accepted reports across rounds.", s);
    i.malformed = r.GetCounter("bitpush_round_malformed_reports_total",
                               "Reports rejected for an invalid bit index.",
                               s);
    i.wire_requests = r.GetCounter("bitpush_wire_requests_total",
                                   "Bit requests sent to clients.", s);
    i.wire_reports = r.GetCounter("bitpush_wire_reports_total",
                                  "Bit reports received from clients.", s);
    i.wire_private_bits =
        r.GetCounter("bitpush_wire_private_bits_total",
                     "Private bits disclosed on the wire.", s);
    i.wire_payload_bytes =
        r.GetCounter("bitpush_wire_payload_bytes_total",
                     "Estimated payload bytes in both directions.", s);
    i.faults_injected = r.GetCounter("bitpush_faults_injected_total",
                                     "Faults injected by the fault plan.", s);
    i.late_rejected = r.GetCounter("bitpush_faults_late_rejected_total",
                                   "Straggler reports past the deadline.", s);
    i.corrupt_rejected =
        r.GetCounter("bitpush_faults_corrupt_rejected_total",
                     "Corrupt reports rejected by validation.", s);
    i.truncated_rejected =
        r.GetCounter("bitpush_faults_truncated_rejected_total",
                     "Truncated reports rejected by the decoder.", s);
    i.recheckins_rejected =
        r.GetCounter("bitpush_faults_recheckins_rejected_total",
                     "Crash re-check-ins rejected by the dedup.", s);
    i.backfill_requests =
        r.GetCounter("bitpush_faults_backfill_requests_total",
                     "Replacement clients contacted by backfill.", s);
    i.backfill_reports =
        r.GetCounter("bitpush_faults_backfill_reports_total",
                     "Replacement reports accepted by backfill.", s);
    i.static_fallbacks =
        r.GetCounter("bitpush_faults_static_fallbacks_total",
                     "Round-2 allocations degraded to the static policy.", s);
    i.retries_scheduled = r.GetCounter("bitpush_retries_scheduled_total",
                                       "Full re-requests scheduled.", s);
    i.retransmits = r.GetCounter("bitpush_retransmits_requested_total",
                                 "Wire-leg retransmissions requested.", s);
    i.retry_recovered =
        r.GetCounter("bitpush_retry_reports_recovered_total",
                     "Reports recovered through retries.", s);
    i.retries_exhausted = r.GetCounter("bitpush_retries_exhausted_total",
                                       "Per-client attempt caps hit.", s);
    i.hedges_issued =
        r.GetCounter("bitpush_hedges_issued_total", "Hedges issued.", s);
    i.hedge_reports = r.GetCounter("bitpush_hedge_reports_total",
                                   "Reports recovered through hedges.", s);
    i.hedge_dedup_drops =
        r.GetCounter("bitpush_hedge_dedup_drops_total",
                     "Late originals dropped after a hedge won.", s);
    i.breaker_skips =
        r.GetCounter("bitpush_breaker_skips_total",
                     "Assignments withheld from quarantined clients.", s);
    i.breaker_probes = r.GetCounter("bitpush_breaker_probes_total",
                                    "Half-open probe assignments.", s);
    i.backoff_minutes =
        r.GetGauge("bitpush_retry_backoff_minutes",
                   "Cumulative simulated backoff minutes charged.", s);
    i.round_minutes = r.GetHistogram(
        "bitpush_round_sim_minutes",
        "Simulated round duration on the LatencyModel clock (minutes).",
        obs::SimMinutesBounds(), s);
    return i;
  }();
  return instruments;
}

}  // namespace

void ObserveRoundOutcome(const RoundOutcome& outcome) {
  if (!obs::Enabled()) return;
  const RoundInstruments& i = GetRoundInstruments();
  i.rounds->Increment();
  i.contacted->Add(outcome.contacted);
  i.responded->Add(outcome.responded);
  i.malformed->Add(outcome.malformed_reports);
  const CommunicationStats wire =
      CommunicationStats::ForRound(outcome.contacted, outcome.responded);
  i.wire_requests->Add(wire.requests_sent);
  i.wire_reports->Add(wire.reports_received);
  i.wire_private_bits->Add(wire.private_bits);
  i.wire_payload_bytes->Add(wire.payload_bytes);
  i.faults_injected->Add(outcome.faults.InjectedTotal());
  i.late_rejected->Add(outcome.faults.late_reports_rejected);
  i.corrupt_rejected->Add(outcome.faults.corrupt_reports_rejected);
  i.truncated_rejected->Add(outcome.faults.truncated_reports_rejected);
  i.recheckins_rejected->Add(outcome.faults.recheckins_rejected);
  i.backfill_requests->Add(outcome.faults.backfill_requests);
  i.backfill_reports->Add(outcome.faults.backfill_reports);
  i.static_fallbacks->Add(outcome.faults.static_policy_fallbacks);
  i.retries_scheduled->Add(outcome.retry.retries_scheduled);
  i.retransmits->Add(outcome.retry.retransmits_requested);
  i.retry_recovered->Add(outcome.retry.retry_reports_recovered);
  i.retries_exhausted->Add(outcome.retry.retries_exhausted);
  i.hedges_issued->Add(outcome.retry.hedges_issued);
  i.hedge_reports->Add(outcome.retry.hedge_reports);
  i.hedge_dedup_drops->Add(outcome.retry.hedge_dedup_drops);
  i.breaker_skips->Add(outcome.retry.breaker_skips);
  i.breaker_probes->Add(outcome.retry.breaker_probes);
  i.backoff_minutes->Add(outcome.retry.backoff_minutes);
  i.round_minutes->Observe(outcome.retry.elapsed_minutes);

  // Flight-recorder events. This function is the exactly-once round
  // boundary shared by the live, journal-restored, and recovery-replay
  // paths, so events emitted here are replay-stable: every field below is
  // derived from the journaled outcome.
  {
    obs::EventArgs args;
    args.sim_minutes = outcome.retry.elapsed_minutes;
    args.has_sim_minutes = true;
    args.detail = "contacted=" + std::to_string(outcome.contacted) +
                  " responded=" + std::to_string(outcome.responded);
    obs::EmitEvent(obs::EventType::kRoundOutcome, obs::Determinism::kStable,
                   std::move(args));
  }
  // A round that scheduled a burst of full re-requests is a retry storm,
  // at the alert engine's threshold, so that the flight recorder and the
  // alert engine agree on what counts as one.
  if (outcome.retry.retries_scheduled >= obs::kRetryStormThreshold) {
    obs::EventArgs args;
    args.detail =
        "retries_scheduled=" + std::to_string(outcome.retry.retries_scheduled) +
        " retransmits=" + std::to_string(outcome.retry.retransmits_requested);
    obs::EmitEvent(obs::EventType::kRetryStorm, obs::Determinism::kStable,
                   std::move(args));
  }
}

void ObserveBreakerState(const HealthTracker& health) {
  if (!obs::Enabled()) return;
  Registry& r = Registry::Default();
  const Determinism s = Determinism::kStable;
  static Gauge* opens = r.GetGauge("bitpush_breaker_opens",
                                   "Breaker open transitions so far.", s);
  static Gauge* closes = r.GetGauge("bitpush_breaker_closes",
                                    "Breaker close transitions so far.", s);
  static Gauge* quarantined =
      r.GetGauge("bitpush_breaker_quarantined_clients",
                 "Clients currently quarantined (open or half-open).", s);
  static Gauge* tracked = r.GetGauge("bitpush_breaker_tracked_clients",
                                     "Clients with breaker history.", s);
  opens->Set(static_cast<double>(health.opens()));
  closes->Set(static_cast<double>(health.closes()));
  quarantined->Set(static_cast<double>(health.quarantined_clients()));
  tracked->Set(static_cast<double>(health.tracked_clients()));
}

void ObserveQueryResult(const CampaignTickResult& result) {
  if (!obs::Enabled()) return;
  Registry& r = Registry::Default();
  const Determinism s = Determinism::kStable;
  static Counter* ran = r.GetCounter("bitpush_queries_ran_total",
                                     "Scheduled queries that produced an "
                                     "estimate.",
                                     s);
  static Counter* skipped_cohort =
      r.GetCounter("bitpush_queries_skipped_cohort_total",
                   "Queries skipped below the privacy minimum.", s);
  static Counter* skipped_budget =
      r.GetCounter("bitpush_queries_skipped_budget_total",
                   "Queries skipped with the budget exhausted.", s);
  static Counter* reports = r.GetCounter(
      "bitpush_query_reports_total", "Accepted reports across queries.", s);
  switch (result.status) {
    case CampaignTickResult::Status::kRan:
      ran->Increment();
      break;
    case CampaignTickResult::Status::kSkippedCohort:
      skipped_cohort->Increment();
      break;
    case CampaignTickResult::Status::kSkippedBudget:
      skipped_budget->Increment();
      break;
  }
  reports->Add(result.reports);
}

void ObserveCampaignTick() {
  if (!obs::Enabled()) return;
  static Counter* ticks = Registry::Default().GetCounter(
      "bitpush_campaign_ticks_total", "Campaign ticks executed.",
      Determinism::kStable);
  ticks->Increment();
}

void ObserveShardTickMerged(int64_t shards_delivered, int64_t shards_lost,
                            bool quorum_failed) {
  if (!obs::Enabled()) return;
  struct ShardInstruments {
    Counter* merged_ticks;
    Counter* frames;
    Counter* lost;
    Counter* quorum_failures;
    Counter* degraded_ticks;
  };
  static const ShardInstruments instruments = [] {
    Registry& r = Registry::Default();
    const Determinism v = Determinism::kVolatile;
    ShardInstruments i;
    i.merged_ticks = r.GetCounter("bitpush_shard_merged_ticks_total",
                                  "Ticks closed by the merge tier.", v);
    i.frames = r.GetCounter("bitpush_shard_frames_merged_total",
                            "Shard tick frames merged.", v);
    i.lost = r.GetCounter("bitpush_shard_ticks_lost_total",
                          "Shard-ticks lost past their deadline.", v);
    i.quorum_failures =
        r.GetCounter("bitpush_shard_quorum_failures_total",
                     "Merge ticks failed closed below quorum.", v);
    i.degraded_ticks =
        r.GetCounter("bitpush_shard_degraded_ticks_total",
                     "Merge ticks published with at least one shard lost.",
                     v);
    return i;
  }();
  instruments.merged_ticks->Increment();
  instruments.frames->Add(shards_delivered);
  instruments.lost->Add(shards_lost);
  if (quorum_failed) instruments.quorum_failures->Increment();
  if (!quorum_failed && shards_lost > 0) {
    instruments.degraded_ticks->Increment();
  }
}

}  // namespace bitpush
