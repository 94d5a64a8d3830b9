#include "federated/server.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
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
  // Contacts are journaled as 32-bit indices into `clients`.
  BITPUSH_CHECK_LE(clients.size(), size_t{UINT32_MAX});

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

  // Check-in: the cohort's trailing re-check-ins, clients already
  // assigned in an earlier round of this query (crash-then-recheckin), are
  // rejected before any assignment is issued.
  BITPUSH_CHECK(config.recheckins >= 0 &&
                config.recheckins <= static_cast<int64_t>(cohort.size()));
  outcome.faults.recheckins_rejected += config.recheckins;
  const std::span<const int64_t> active(
      cohort.data(), cohort.size() - static_cast<size_t>(config.recheckins));

  // Accepted reports go straight into the round's bit planes, slot r
  // holding the r-th accepted report. A report needs a contact of its
  // own: one per checked-in cohort entry, and one per pool entry, which
  // hedges and backfill draw at most once each.
  const int64_t report_slots = static_cast<int64_t>(
      active.size() + config.backfill_pool.size());
  // Every contact takes a slot, so the contact list and its bitmaps are
  // sized once; the bitmaps are cut to the contacts at the round's close.
  // The list is reserved ahead of the report batch, which the round frees
  // at its close: reserved after it, perfbench's mem_1m (1M clients, on a
  // 4-vCPU VM) read a peak RSS between 134 and 184 MB from run to run as
  // glibc's heap fragmented, and in this order 133-134 MB in every run.
  outcome.assigned_clients.reserve(static_cast<size_t>(report_slots));
  ReportBatch reports =
      report_slots > 0 ? MakeEmptyBatch(bits, report_slots) : ReportBatch{};
  int64_t accepted_reports = 0;
  const size_t slot_words = static_cast<size_t>(report_slots + 63) / 64;
  for (std::vector<uint64_t>* bitmap :
       {&outcome.charge_attempted, &outcome.charge_granted, &outcome.accepted,
        &outcome.crashed}) {
    bitmap->assign(slot_words, 0);
  }

  const RandomizedResponse rr = RandomizedResponse::FromEpsilon(config.epsilon);
  const double charge_epsilon = config.epsilon > 0 ? config.epsilon : 0.0;
  outcome.charge_epsilon = charge_epsilon;
  // Every client the round may contact gets its ledger row before the
  // first stage, so that no charge adds one (federated/round_stages.h). A
  // meter whose registration is closed holds a row for each already.
  if (meter != nullptr && !meter->registration_closed()) {
    for (const int64_t idx : active) {
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
  // already-metered report — so no slot is ever charged twice. The
  // meter's decision, the crash and the accepted report are marked in the
  // outcome's bitmaps at the contact's bit.
  const auto run_slot = [&](const StagedSlot& slot, int64_t idx,
                            const BitRequest& request, bool allow_retries,
                            bool is_hedge, bool backfill) -> SlotResult {
    const int64_t client_id = slot.client.id;
    const size_t contact = outcome.assigned_clients.size();
    outcome.assigned_clients.push_back(static_cast<uint32_t>(idx));
    const size_t contact_word = contact / 64;
    const uint64_t contact_bit = uint64_t{1} << (contact % 64);
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
        outcome.crashed[contact_word] |= contact_bit;
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
        const AnswerStatus status =
            AnswerRequest(slot.client, request, codec_,
                          !config.central_randomness, rr, meter, slot.lookup,
                          rng, &report);
        if (meter != nullptr && status != AnswerStatus::kDroppedOut) {
          outcome.charge_attempted[contact_word] |= contact_bit;
        }
        if (status != AnswerStatus::kAnswered) return SlotResult::kFailed;
        answered = true;
        if (meter != nullptr) {
          outcome.charge_granted[contact_word] |= contact_bit;
          stages.Granted(slot);
        }
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
      if (backfill) ++outcome.faults.backfill_reports;
      if (is_hedge) {
        ++outcome.retry.hedge_reports;
      } else if (attempt > 0) {
        ++outcome.retry.retry_reports_recovered;
      }
      PutReport(&reports, accepted_reports++, delivered.bit_index,
                delivered.bit);
      outcome.accepted[contact_word] |= contact_bit;
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
  // it fails or straggles and the policy allows one.
  const auto respond = [&](const StagedSlot& slot, int64_t idx,
                           const BitRequest& request, bool backfill) {
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
      if (hedge_planned) {
        // First complete wins: the original arrived, so the duplicate is
        // cancelled before the hedge client computes anything — it never
        // discloses a bit, is never metered, and stays in the pool.
        ++outcome.retry.hedges_issued;
        ++outcome.retry.hedges_cancelled;
      }
      return;
    }
    // Reactive hedging: a straggler's report is *predicted late* the
    // moment its delay is known, so the duplicate goes out even before
    // the budget-pressure trigger fires.
    const bool hedge_wanted =
        res.hedge.enabled &&
        (hedge_planned || primary == SlotResult::kStraggledLate) &&
        outcome.retry.hedges_issued < res.hedge.max_hedges_per_round;
    if (!hedge_wanted) return;
    const std::optional<int64_t> hedge_idx = next_pool_client();
    if (!hedge_idx.has_value()) return;
    const StagedSlot hedge = stages.StageHedge(*hedge_idx);
    ++outcome.retry.hedges_issued;
    const SlotResult hedged =
        run_slot(hedge, *hedge_idx, request, /*allow_retries=*/false,
                 /*is_hedge=*/true, /*backfill=*/false);
    if (hedged == SlotResult::kAccepted) {
      if (primary == SlotResult::kStraggledLate) {
        // The original's late duplicate is discarded by dedup: exactly
        // one report per work item enters the tally.
        ++outcome.retry.hedge_dedup_drops;
      }
    } else {
      ++outcome.retry.hedge_failures;
    }
  };

  // One collection pass: filter the batch through the circuit breaker,
  // assign bits (QMC partition per pass), then drive every slot through the
  // pipeline, chunk by chunk (federated/round_stages.h): stage the chunk's
  // clients and ledger rows, respond slot by slot, apply the chunk's grants
  // to the ledger; with threads, the next chunk's stage and the previous
  // chunk's apply run while this one responds.
  const auto collect = [&](std::span<const int64_t> batch, bool backfill) {
    std::vector<int64_t> admitted;
    if (breaker_on) {
      admitted.reserve(batch.size());
      for (const int64_t idx : batch) {
        if (admit(idx)) admitted.push_back(idx);
      }
    }
    const std::span<const int64_t> eligible =
        breaker_on ? std::span<const int64_t>(admitted) : batch;
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
                     respond(slot, eligible[i], request, backfill);
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

  outcome.contacted = static_cast<int64_t>(outcome.assigned_clients.size());
  outcome.responded = accepted_reports;
  const size_t words = (outcome.assigned_clients.size() + 63) / 64;
  for (std::vector<uint64_t>* bitmap :
       {&outcome.charge_attempted, &outcome.charge_granted, &outcome.accepted,
        &outcome.crashed}) {
    bitmap->resize(words);
  }
  if (resilience_on) outcome.retry.elapsed_minutes = clock;
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

int64_t CountContacts(const std::vector<uint64_t>& bitmap) {
  int64_t count = 0;
  for (const uint64_t word : bitmap) count += std::popcount(word);
  return count;
}

void EncodeRoundOutcome(const RoundOutcome& outcome,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  EncodeBitHistogram(outcome.histogram, out);
  bytes::PutInt64(outcome.malformed_reports, out);
  bytes::PutInt64Vector(outcome.intended_counts, out);
  EncodeFaultStats(outcome.faults, out);
  bytes::PutUint32Vector(outcome.assigned_clients, out);
  bytes::PutUint64Vector(outcome.charge_attempted, out);
  bytes::PutUint64Vector(outcome.charge_granted, out);
  bytes::PutUint64Vector(outcome.accepted, out);
  bytes::PutUint64Vector(outcome.crashed, out);
  bytes::PutDouble(outcome.charge_epsilon, out);
  EncodeRetryStats(outcome.retry, out);
}

bool DecodeRoundOutcome(std::span<const uint8_t> buffer, size_t* offset,
                        RoundOutcome* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  RoundOutcome outcome;
  if (!DecodeBitHistogram(buffer, &cursor, &outcome.histogram) ||
      !bytes::GetInt64(buffer, &cursor, &outcome.malformed_reports) ||
      !bytes::GetInt64Vector(buffer, &cursor, &outcome.intended_counts) ||
      !DecodeFaultStats(buffer, &cursor, &outcome.faults) ||
      !bytes::GetUint32Vector(buffer, &cursor, &outcome.assigned_clients) ||
      !bytes::GetUint64Vector(buffer, &cursor, &outcome.charge_attempted) ||
      !bytes::GetUint64Vector(buffer, &cursor, &outcome.charge_granted) ||
      !bytes::GetUint64Vector(buffer, &cursor, &outcome.accepted) ||
      !bytes::GetUint64Vector(buffer, &cursor, &outcome.crashed) ||
      !bytes::GetDouble(buffer, &cursor, &outcome.charge_epsilon) ||
      !DecodeRetryStats(buffer, &cursor, &outcome.retry)) {
    return false;
  }
  if (outcome.malformed_reports < 0) return false;
  for (const int64_t count : outcome.intended_counts) {
    if (count < 0) return false;
  }
  // The four bitmaps: a word per 64 contacts, no bit past the last
  // contact, no grant without an attempt, and no contact both accepted
  // and crashed; the crash count is what the crashed bitmap says.
  const size_t contacts = outcome.assigned_clients.size();
  const size_t words = (contacts + 63) / 64;
  const uint64_t last_word = contacts % 64 == 0
                                 ? ~uint64_t{0}
                                 : (uint64_t{1} << (contacts % 64)) - 1;
  for (const std::vector<uint64_t>* bitmap :
       {&outcome.charge_attempted, &outcome.charge_granted, &outcome.accepted,
        &outcome.crashed}) {
    if (bitmap->size() != words) return false;
    if (words > 0 && (bitmap->back() & ~last_word) != 0) return false;
  }
  bool any_grant = false;
  for (size_t w = 0; w < words; ++w) {
    const uint64_t granted = outcome.charge_granted[w];
    if ((granted & ~outcome.charge_attempted[w]) != 0 ||
        (outcome.accepted[w] & outcome.crashed[w]) != 0) {
      return false;
    }
    any_grant = any_grant || granted != 0;
  }
  if (outcome.faults.injected_crashes != CountContacts(outcome.crashed)) {
    return false;
  }
  // No grant at an epsilon the meter denies whatever its ledger holds.
  if (any_grant && (!std::isfinite(outcome.charge_epsilon) ||
                    outcome.charge_epsilon < 0.0)) {
    return false;
  }
  outcome.contacted = static_cast<int64_t>(contacts);
  outcome.responded = CountContacts(outcome.accepted);
  *out = std::move(outcome);
  *offset = cursor;
  return true;
}

void ObserveRoundHealth(int64_t round_id, const RoundOutcome& outcome,
                        const std::vector<Client>& clients,
                        HealthTracker* health) {
  BITPUSH_CHECK(health != nullptr);
  if (!health->policy().enabled()) return;
  std::vector<int64_t> succeeded;
  std::vector<int64_t> failed;
  succeeded.reserve(static_cast<size_t>(outcome.responded));
  failed.reserve(outcome.assigned_clients.size() -
                 static_cast<size_t>(outcome.responded));
  for (size_t i = 0; i < outcome.assigned_clients.size(); ++i) {
    const int64_t id = clients[outcome.assigned_clients[i]].id();
    (ContactBit(outcome.accepted, i) ? succeeded : failed).push_back(id);
  }
  health->ObserveRound(round_id, succeeded, failed);
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
