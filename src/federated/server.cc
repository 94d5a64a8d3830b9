#include "federated/server.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "batch/batch.h"
#include "federated/latency.h"
#include "federated/round_stages.h"
#include "federated/secure_agg.h"
#include "ldp/randomized_response.h"
#include "rng/qmc.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

AggregationServer::AggregationServer(const FixedPointCodec& codec)
    : codec_(codec) {}

RoundOutcome AggregationServer::RunRound(const std::vector<Client>& clients,
                                         const std::vector<int64_t>& cohort,
                                         const RoundConfig& config,
                                         PrivacyMeter* meter,
                                         Rng& rng) const {
  const int bits = codec_.bits();
  BITPUSH_CHECK_EQ(static_cast<int>(config.probabilities.size()), bits);
  BITPUSH_CHECK(!cohort.empty());

  RoundOutcome outcome;
  outcome.histogram = BitHistogram(bits);
  if (config.central_randomness) {
    outcome.intended_counts.assign(static_cast<size_t>(bits), 0);
  }

  // Resilience setup. With the default (disabled) config every knob below
  // is inert — zero service minutes, infinite budget, no retries, no
  // hedging, no breaker — and the round reproduces pre-resilience behavior
  // byte for byte, RNG stream included.
  const ResilienceConfig& res = config.resilience;
  const bool resilience_on = res.Enabled();
  const bool breaker_on =
      config.health != nullptr && config.health->policy().enabled();
  const RetrySchedule schedule = res.retry.enabled()
                                     ? RetrySchedule(res.seed, res.retry)
                                     : RetrySchedule();
  // Virtual round clock, in simulated minutes: each contact costs the
  // expected per-device collection time, retries add their backoff on top,
  // and the whole round is bounded by the deadline budget.
  const double service_minutes =
      resilience_on ? ExpectedCollectionMinutes(res.latency, 1) : 0.0;
  const double budget_minutes = res.budget.minutes;
  // The budget clamps the flat straggler deadline: whichever is tighter
  // decides what "late" means this round.
  const double effective_deadline =
      res.budget.ClampDeadline(config.fault_policy.report_deadline_minutes);
  double clock = 0.0;
  int64_t round_retries = 0;

  // Check-in: clients already assigned in an earlier round of this query
  // (crash-then-recheckin) are rejected before any assignment is issued.
  if (config.already_assigned != nullptr) {
    BITPUSH_CHECK_EQ(config.already_assigned->size(), clients.size());
  }
  std::vector<int64_t> checked_in;
  if (config.already_assigned != nullptr) {
    checked_in.reserve(cohort.size());
    for (const int64_t idx : cohort) {
      if ((*config.already_assigned)[static_cast<size_t>(idx)] != 0) {
        ++outcome.faults.recheckins_rejected;
        continue;
      }
      checked_in.push_back(idx);
    }
  }
  const std::vector<int64_t>& active =
      config.already_assigned != nullptr ? checked_in : cohort;

  // Accepted reports go straight into the round's bit planes, slot r
  // holding the r-th accepted report. A report needs a contact of its
  // own: one per checked-in cohort entry, and one per pool entry, which
  // hedges and backfill draw at most once each.
  const int64_t report_slots = static_cast<int64_t>(
      active.size() + config.backfill_pool.size());
  ReportBatch reports =
      report_slots > 0 ? MakeEmptyBatch(bits, report_slots) : ReportBatch{};
  int64_t accepted_reports = 0;
  // Every contact and every report takes a slot, so the id lists of both
  // are sized once.
  outcome.assigned_clients.reserve(static_cast<size_t>(report_slots));
  outcome.succeeded_client_ids.reserve(static_cast<size_t>(report_slots));

  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(config.epsilon);
  const double charge_epsilon = config.epsilon > 0 ? config.epsilon : 0.0;
  // Every client the round may contact gets its ledger row before the
  // first stage, so that no charge adds one (federated/round_stages.h). A
  // meter whose registration is closed holds a row for each already.
  if (meter != nullptr && !meter->registration_closed()) {
    for (const int64_t idx : cohort) {
      meter->Register(clients[static_cast<size_t>(idx)].id());
    }
    for (const int64_t idx : config.backfill_pool) {
      meter->Register(clients[static_cast<size_t>(idx)].id());
    }
  }
  RoundStages stages(clients, meter, config.value_id, charge_epsilon,
                     config.workers);
  const int64_t charges_before =
      meter != nullptr ? meter->total_bits() + meter->denied_charges() : 0;

  enum class SlotResult {
    kAccepted,
    kFailed,
    // The report exists but its predicted arrival misses the effective
    // deadline — the hedge-eligible failure mode.
    kStraggledLate,
  };

  // The full request pipeline for one assignment slot: contact, client-side
  // loss (with retries — a fresh fault roll per attempt), the wire leg
  // (with retransmissions of the already-computed report), the deadline
  // cutoff, and the server's protocol validation. Privacy-meter contract:
  // the client answers at most once per slot — a retry after dropout
  // re-requests the *undisclosed* bit, a retransmission re-sends the
  // already-metered report — so no slot is ever charged twice.
  const auto run_slot = [&](const StagedSlot& slot, int64_t idx,
                            const BitRequest& request, bool allow_retries,
                            bool is_hedge, bool backfill) -> SlotResult {
    const int64_t client_id = slot.client.id;
    outcome.assigned_clients.push_back(idx);
    ++outcome.contacted;
    ++outcome.comm.requests_sent;
    outcome.comm.payload_bytes += kRequestPayloadBytes;
    if (backfill) ++outcome.faults.backfill_requests;

    BitReport report;
    bool answered = false;
    int64_t attempt = 0;
    // Gatekeeper for another attempt: per-client cap, per-round cap, then
    // the deadline budget (the backoff plus one more service interval must
    // still fit). Charges the backoff to the clock on success.
    const auto try_schedule_retry = [&](bool retransmit) -> bool {
      if (!allow_retries || !res.retry.enabled()) return false;
      const int64_t next = attempt + 1;
      if (next > res.retry.max_retries_per_client) {
        ++outcome.retry.retries_exhausted;
        return false;
      }
      if (round_retries >= res.retry.max_retries_per_round) {
        ++outcome.retry.retry_budget_denied;
        return false;
      }
      const double backoff =
          schedule.BackoffMinutes(config.round_id, client_id, next);
      if (clock + backoff + service_minutes > budget_minutes) {
        ++outcome.retry.deadline_denied;
        return false;
      }
      clock += backoff;
      outcome.retry.backoff_minutes += backoff;
      ++round_retries;
      if (retransmit) {
        ++outcome.retry.retransmits_requested;
      } else {
        ++outcome.retry.retries_scheduled;
      }
      attempt = next;
      return true;
    };

    while (true) {
      clock += service_minutes;
      const FaultType fault =
          config.fault_plan != nullptr
              ? config.fault_plan->DecideAttempt(config.round_id, client_id,
                                                 attempt)
              : FaultType::kNone;
      if (fault == FaultType::kRoundBoundaryCrash) {
        // Fatal for the slot whether it struck the first attempt or a
        // retransmission: the device is gone until it re-checks-in.
        ++outcome.faults.injected_crashes;
        outcome.crashed_clients.push_back(idx);
        return SlotResult::kFailed;
      }
      if (fault == FaultType::kMidRoundDropout) {
        // The device vanished before this leg completed. On attempt 0
        // nothing was disclosed and the meter was never charged; on a
        // retransmission only the wire leg was lost.
        ++outcome.faults.injected_dropouts;
        if (try_schedule_retry(/*retransmit=*/answered)) continue;
        return SlotResult::kFailed;
      }
      if (!answered) {
        // Organic loss (client-side dropout or meter denial) is not an
        // injected fault and is not retried: the device made its decision.
        if (!AnswerRequest(slot.client, request, codec_,
                           !config.central_randomness, rr, meter,
                           slot.lookup, rng, &report)) {
          return SlotResult::kFailed;
        }
        answered = true;
        if (meter != nullptr) stages.Granted(slot);
      }
      BitReport delivered = report;
      if (fault == FaultType::kCorruptMessage ||
          fault == FaultType::kTruncateMessage) {
        // The report was sent (and metered); the wire leg garbles it. A
        // rejected frame is recovered by *retransmission* — the client
        // re-sends the same report, so the meter is not consulted again.
        const std::optional<BitReport> garbled = DeliverFaultedReport(
            *config.fault_plan, config.round_id, client_id, attempt, fault,
            report, &outcome.faults);
        if (!garbled.has_value()) {
          if (try_schedule_retry(/*retransmit=*/true)) continue;
          return SlotResult::kFailed;
        }
        delivered = *garbled;
      }
      if (fault == FaultType::kStraggler) {
        ++outcome.faults.injected_stragglers;
        if (std::isfinite(effective_deadline)) {
          ++outcome.faults.late_reports_rejected;
          return SlotResult::kStraggledLate;
        }
        ++outcome.faults.late_reports_accepted;
      }
      if (config.central_randomness) {
        // Defense: tally under the server's assignment, not the claim.
        delivered.bit_index = request.bit_index;
      } else if (delivered.bit_index < 0 || delivered.bit_index >= bits ||
                 (delivered.bit != 0 && delivered.bit != 1)) {
        // Under local randomness the index (and bit) are client-supplied;
        // reject anything outside the protocol's domain.
        ++outcome.malformed_reports;
        return SlotResult::kFailed;
      }
      ++outcome.comm.reports_received;
      ++outcome.comm.private_bits;
      outcome.comm.payload_bytes += kReportPayloadBytes;
      if (backfill) ++outcome.faults.backfill_reports;
      if (is_hedge) {
        ++outcome.retry.hedge_reports;
      } else if (attempt > 0) {
        ++outcome.retry.retry_reports_recovered;
      }
      PutReport(&reports, accepted_reports++, delivered.bit_index,
                delivered.bit);
      return SlotResult::kAccepted;
    }
  };

  // The circuit breaker's admission of a client: false when it is
  // quarantined; a half-open client is admitted as the probe.
  const auto admit = [&](int64_t idx) {
    if (!breaker_on) return true;
    const int64_t id = clients[static_cast<size_t>(idx)].id();
    const AssignmentDecision decision = config.health->Decision(id);
    if (decision == AssignmentDecision::kSkip) {
      ++outcome.retry.breaker_skips;
      return false;
    }
    if (decision == AssignmentDecision::kProbe) ++outcome.retry.breaker_probes;
    return true;
  };

  // Fresh-client source for hedges, shared with the backfill passes so no
  // client is drawn twice. Quarantined clients are skipped here like
  // everywhere else.
  size_t pool_pos = 0;
  const auto next_pool_client = [&]() -> std::optional<int64_t> {
    while (pool_pos < config.backfill_pool.size()) {
      const int64_t idx = config.backfill_pool[pool_pos++];
      if (admit(idx)) return idx;
    }
    return std::nullopt;
  };

  // The respond step of one slot: the primary request, then a hedge when
  // it fails or straggles and the policy allows one. False when the rest
  // of the chunk must be staged again: the hedge's client had a grant
  // pending, so the pending grants were applied before it ran.
  const auto respond = [&](const StagedSlot& slot, int64_t idx,
                           const BitRequest& request, bool backfill) {
    const int64_t client_id = slot.client.id;
    // Pre-emptive hedging: once the budget is nearly spent, every slot
    // gets a duplicate assignment reserved up front. Decided *before* the
    // slot runs so the hedge models a duplicate issued alongside the
    // original, not hindsight.
    const bool hedge_planned =
        res.hedge.enabled && res.budget.finite() &&
        clock >= res.hedge.trigger_budget_fraction * budget_minutes &&
        outcome.retry.hedges_issued < res.hedge.max_hedges_per_round;
    const SlotResult primary = run_slot(slot, idx, request,
                                        /*allow_retries=*/true,
                                        /*is_hedge=*/false, backfill);
    if (primary == SlotResult::kAccepted) {
      outcome.succeeded_client_ids.push_back(client_id);
      if (hedge_planned) {
        // First complete wins: the original arrived, so the duplicate is
        // cancelled before the hedge client computes anything — it never
        // discloses a bit, is never metered, and stays in the pool.
        ++outcome.retry.hedges_issued;
        ++outcome.retry.hedges_cancelled;
      }
      return true;
    }
    outcome.failed_client_ids.push_back(client_id);
    // Reactive hedging: a straggler's report is *predicted late* the
    // moment its delay is known, so the duplicate goes out even before
    // the budget-pressure trigger fires.
    const bool hedge_wanted =
        res.hedge.enabled &&
        (hedge_planned || primary == SlotResult::kStraggledLate) &&
        outcome.retry.hedges_issued < res.hedge.max_hedges_per_round;
    if (!hedge_wanted) return true;
    const std::optional<int64_t> hedge_idx = next_pool_client();
    if (!hedge_idx.has_value()) return true;
    StagedSlot hedge;
    const bool restage = stages.StageHedge(*hedge_idx, &hedge);
    ++outcome.retry.hedges_issued;
    const SlotResult hedged =
        run_slot(hedge, *hedge_idx, request, /*allow_retries=*/false,
                 /*is_hedge=*/true, /*backfill=*/false);
    if (hedged == SlotResult::kAccepted) {
      outcome.succeeded_client_ids.push_back(hedge.client.id);
      if (primary == SlotResult::kStraggledLate) {
        // The original's late duplicate is discarded by dedup: exactly
        // one report per work item enters the tally.
        ++outcome.retry.hedge_dedup_drops;
      }
    } else {
      ++outcome.retry.hedge_failures;
      outcome.failed_client_ids.push_back(hedge.client.id);
    }
    return !restage;
  };

  // One collection pass: filter the batch through the circuit breaker,
  // assign bits (QMC partition per pass), then drive every slot through the
  // pipeline, chunk by chunk (federated/round_stages.h): stage the chunk's
  // clients and ledger rows, respond slot by slot, apply the chunk's grants
  // to the ledger; with threads, the next chunk's stage and the previous
  // chunk's apply run while this one responds.
  const auto collect = [&](const std::vector<int64_t>& batch, bool backfill) {
    std::vector<int64_t> admitted;
    if (breaker_on) {
      admitted.reserve(batch.size());
      for (const int64_t idx : batch) {
        if (admit(idx)) admitted.push_back(idx);
      }
    }
    const std::vector<int64_t>& eligible = breaker_on ? admitted : batch;
    const int64_t k = static_cast<int64_t>(eligible.size());
    if (k == 0) return;
    const std::vector<int> assignment =
        config.central_randomness
            ? AssignBitsCentral(k, config.probabilities, rng)
            : AssignBitsLocal(k, config.probabilities, rng);
    if (config.central_randomness) {
      for (const int bit : assignment) {
        ++outcome.intended_counts[static_cast<size_t>(bit)];
      }
    }
    stages.RunPass(eligible, config.trace_parent, config.round_id,
                   [&](const StagedSlot& slot, size_t i) {
                     const BitRequest request{config.round_id,
                                              config.value_id, assignment[i],
                                              config.epsilon};
                     return respond(slot, eligible[i], request, backfill);
                   });
  };

  collect(active, /*backfill=*/false);

  // Bounded backfill: re-draw replacement clients from the pool until the
  // accepted-report count reaches the cohort target or the passes/pool run
  // out. Replacements run the same pipeline (faults included) and are
  // metered on response like any reporter.
  const int64_t target = static_cast<int64_t>(active.size());
  for (int64_t pass = 0; pass < config.fault_policy.max_backfill_rounds &&
                         accepted_reports < target &&
                         pool_pos < config.backfill_pool.size();
       ++pass) {
    const int64_t need = target - accepted_reports;
    std::vector<int64_t> draw;
    draw.reserve(static_cast<size_t>(need));
    while (static_cast<int64_t>(draw.size()) < need &&
           pool_pos < config.backfill_pool.size()) {
      draw.push_back(config.backfill_pool[pool_pos++]);
    }
    ++outcome.faults.backfill_rounds_used;
    collect(draw, /*backfill=*/true);
  }
  // The gauges follow the round's charges once, at its close.
  if (meter != nullptr &&
      meter->total_bits() + meter->denied_charges() != charges_before) {
    meter->PublishObsGauges();
  }

  outcome.responded = accepted_reports;
  if (resilience_on) outcome.retry.elapsed_minutes = clock;
  outcome.dropout_rate =
      outcome.contacted > 0
          ? 1.0 - static_cast<double>(outcome.responded) /
                      static_cast<double>(outcome.contacted)
          : 0.0;
  if (accepted_reports == 0) return outcome;

  if (!config.use_secure_aggregation) {
    // Columnar tally (src/batch/): ones[j]/totals[j] are order-free sums,
    // so the counting is a popcount over the packed planes.
    AggregateBatch(reports).AccumulateInto(&outcome.histogram);
    return outcome;
  }

  // Secure aggregation: one session per bit group over the clients that
  // actually responded for that bit, in report order; the server learns
  // only (sum, count).
  std::vector<uint64_t> group;
  for (int j = 0; j < bits; ++j) {
    group.clear();
    const uint64_t* selected = reports.selection_plane(j);
    const uint64_t* plane = reports.plane(j);
    for (int64_t w = 0; w < reports.stride; ++w) {
      for (uint64_t word = selected[w]; word != 0; word &= word - 1) {
        const uint64_t mask = word & -word;
        group.push_back((plane[w] & mask) != 0 ? 1 : 0);
      }
    }
    if (group.empty()) continue;
    const int64_t count = static_cast<int64_t>(group.size());
    // The aggregator constructor consumes the same rng draws as before;
    // masking/summing runs through the kernel word-add (exact mod-2^64
    // arithmetic either way).
    SecureAggregator aggregator(count, rng);
    std::vector<uint64_t> masked(group.size());
    aggregator.MaskBatch(group.data(), count, /*first_slot=*/0,
                         masked.data());
    aggregator.SubmitBatch(masked.data(), count);
    BITPUSH_CHECK(aggregator.complete());
    const uint64_t ones = aggregator.Sum();
    // Reconstruct the histogram from (sum, count) alone.
    outcome.histogram.Accumulate(j, count,
                                 static_cast<int64_t>(ones));
  }
  return outcome;
}

void EncodeRoundOutcome(const RoundOutcome& outcome,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  EncodeBitHistogram(outcome.histogram, out);
  bytes::PutInt64(outcome.contacted, out);
  bytes::PutInt64(outcome.responded, out);
  bytes::PutInt64(outcome.malformed_reports, out);
  bytes::PutDouble(outcome.dropout_rate, out);
  EncodeCommunicationStats(outcome.comm, out);
  bytes::PutInt64Vector(outcome.intended_counts, out);
  EncodeFaultStats(outcome.faults, out);
  bytes::PutInt64Vector(outcome.assigned_clients, out);
  bytes::PutInt64Vector(outcome.crashed_clients, out);
  EncodeRetryStats(outcome.retry, out);
  bytes::PutInt64Vector(outcome.succeeded_client_ids, out);
  bytes::PutInt64Vector(outcome.failed_client_ids, out);
}

bool DecodeRoundOutcome(std::span<const uint8_t> buffer, size_t* offset,
                        RoundOutcome* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  RoundOutcome outcome;
  if (!DecodeBitHistogram(buffer, &cursor, &outcome.histogram) ||
      !bytes::GetInt64(buffer, &cursor, &outcome.contacted) ||
      !bytes::GetInt64(buffer, &cursor, &outcome.responded) ||
      !bytes::GetInt64(buffer, &cursor, &outcome.malformed_reports) ||
      !bytes::GetDouble(buffer, &cursor, &outcome.dropout_rate) ||
      !DecodeCommunicationStats(buffer, &cursor, &outcome.comm) ||
      !bytes::GetInt64Vector(buffer, &cursor, &outcome.intended_counts) ||
      !DecodeFaultStats(buffer, &cursor, &outcome.faults) ||
      !bytes::GetInt64Vector(buffer, &cursor, &outcome.assigned_clients) ||
      !bytes::GetInt64Vector(buffer, &cursor, &outcome.crashed_clients) ||
      !DecodeRetryStats(buffer, &cursor, &outcome.retry) ||
      !bytes::GetInt64Vector(buffer, &cursor,
                             &outcome.succeeded_client_ids) ||
      !bytes::GetInt64Vector(buffer, &cursor, &outcome.failed_client_ids)) {
    return false;
  }
  if (outcome.contacted < 0 || outcome.responded < 0 ||
      outcome.malformed_reports < 0 || !std::isfinite(outcome.dropout_rate) ||
      outcome.dropout_rate < 0.0 || outcome.dropout_rate > 1.0) {
    return false;
  }
  for (const int64_t count : outcome.intended_counts) {
    if (count < 0) return false;
  }
  *out = std::move(outcome);
  *offset = cursor;
  return true;
}

double AggregationServer::EstimateMean(const BitHistogram& histogram,
                                       double epsilon) const {
  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(epsilon);
  const std::vector<double> means = histogram.UnbiasedMeans(rr);
  return codec_.Decode(RecombineBitMeans(means));
}

std::vector<double> AdjustProbabilitiesForDropout(
    const std::vector<double>& probabilities,
    const std::vector<int64_t>& intended_counts,
    const std::vector<int64_t>& realized_counts) {
  BITPUSH_CHECK_EQ(probabilities.size(), intended_counts.size());
  BITPUSH_CHECK_EQ(probabilities.size(), realized_counts.size());
  std::vector<double> adjusted(probabilities.size());
  double total = 0.0;
  for (size_t j = 0; j < probabilities.size(); ++j) {
    double ratio = 1.0;
    if (intended_counts[j] > 0) {
      ratio = static_cast<double>(intended_counts[j]) /
              std::max<double>(1.0, static_cast<double>(realized_counts[j]));
      ratio = std::clamp(ratio, 0.5, 2.0);
    }
    adjusted[j] = probabilities[j] * ratio;
    total += adjusted[j];
  }
  BITPUSH_CHECK_GT(total, 0.0);
  for (double& p : adjusted) p /= total;
  return adjusted;
}

}  // namespace bitpush
