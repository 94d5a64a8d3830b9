#include "federated/server.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "batch/batch.h"
#include "federated/latency.h"
#include "federated/secure_agg.h"
#include "rng/qmc.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

// How many slots ahead RunRound prefetches: far enough to cover a miss to
// memory, near enough that the lines are still cached when the slot runs.
constexpr int64_t kPrefetchDistance = 8;

}  // namespace

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
  std::vector<int64_t> active;
  active.reserve(cohort.size());
  for (const int64_t idx : cohort) {
    if (config.already_assigned != nullptr &&
        (*config.already_assigned)[static_cast<size_t>(idx)] != 0) {
      ++outcome.faults.recheckins_rejected;
      continue;
    }
    active.push_back(idx);
  }

  std::vector<BitReport> reports;
  reports.reserve(active.size());

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
  // HandleRequest runs at most once per slot — a retry after dropout
  // re-requests the *undisclosed* bit, a retransmission re-sends the
  // already-metered report — so no slot is ever charged twice.
  const auto run_slot = [&](int64_t idx, const BitRequest& request,
                            bool allow_retries, bool is_hedge,
                            bool backfill) -> SlotResult {
    const Client& client = clients[static_cast<size_t>(idx)];
    outcome.assigned_clients.push_back(idx);
    ++outcome.contacted;
    ++outcome.comm.requests_sent;
    outcome.comm.payload_bytes += RequestPayloadBytes();
    if (backfill) ++outcome.faults.backfill_requests;

    std::optional<BitReport> report;
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
          schedule.BackoffMinutes(config.round_id, client.id(), next);
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
              ? config.fault_plan->DecideAttempt(config.round_id, client.id(),
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
        if (try_schedule_retry(/*retransmit=*/report.has_value())) continue;
        return SlotResult::kFailed;
      }
      if (!report.has_value()) {
        report = client.HandleRequest(request, codec_,
                                      !config.central_randomness, meter, rng);
        // Organic loss (client-side dropout or meter denial) is not an
        // injected fault and is not retried: the device made its decision.
        if (!report.has_value()) return SlotResult::kFailed;
      }
      std::optional<BitReport> delivered = report;
      if (fault == FaultType::kCorruptMessage ||
          fault == FaultType::kTruncateMessage) {
        // The report was sent (and metered); the wire leg garbles it. A
        // rejected frame is recovered by *retransmission* — the client
        // re-sends the same report, so the meter is not consulted again.
        delivered = DeliverFaultedReport(*config.fault_plan, config.round_id,
                                         client.id(), attempt, fault, *report,
                                         &outcome.faults);
        if (!delivered.has_value()) {
          if (try_schedule_retry(/*retransmit=*/true)) continue;
          return SlotResult::kFailed;
        }
      }
      if (fault == FaultType::kStraggler) {
        ++outcome.faults.injected_stragglers;
        if (std::isfinite(effective_deadline)) {
          ++outcome.faults.late_reports_rejected;
          return SlotResult::kStraggledLate;
        }
        ++outcome.faults.late_reports_accepted;
      }
      BitReport accepted = *delivered;
      if (config.central_randomness) {
        // Defense: tally under the server's assignment, not the claim.
        accepted.bit_index = request.bit_index;
      } else if (accepted.bit_index < 0 || accepted.bit_index >= bits ||
                 (accepted.bit != 0 && accepted.bit != 1)) {
        // Under local randomness the index (and bit) are client-supplied;
        // reject anything outside the protocol's domain.
        ++outcome.malformed_reports;
        return SlotResult::kFailed;
      }
      ++outcome.comm.reports_received;
      ++outcome.comm.private_bits;
      outcome.comm.payload_bytes += ReportPayloadBytes();
      if (backfill) ++outcome.faults.backfill_reports;
      if (is_hedge) {
        ++outcome.retry.hedge_reports;
      } else if (attempt > 0) {
        ++outcome.retry.retry_reports_recovered;
      }
      reports.push_back(accepted);
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

  // One collection pass: filter the batch through the circuit breaker,
  // assign bits (QMC partition per pass), then drive every slot through the
  // pipeline — hedging slots that fail or straggle when the policy allows.
  const auto collect = [&](const std::vector<int64_t>& batch, bool backfill) {
    std::vector<int64_t> eligible;
    eligible.reserve(batch.size());
    for (const int64_t idx : batch) {
      if (admit(idx)) eligible.push_back(idx);
    }
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
    for (int64_t i = 0; i < k; ++i) {
      // The cohort is a shuffled permutation, so each slot's Client, its
      // values and its ledger row are random accesses. Fetch the Client
      // 2 * kPrefetchDistance slots ahead, and kPrefetchDistance slots
      // ahead, once it has arrived, what it points to.
      if (i + 2 * kPrefetchDistance < k) {
        // A Client can straddle two cache lines.
        const Client* later = &clients[static_cast<size_t>(
            eligible[static_cast<size_t>(i + 2 * kPrefetchDistance)])];
        __builtin_prefetch(later);
        __builtin_prefetch(reinterpret_cast<const char*>(later + 1) - 1);
      }
      if (i + kPrefetchDistance < k) {
        const Client& ahead = clients[static_cast<size_t>(
            eligible[static_cast<size_t>(i + kPrefetchDistance)])];
        __builtin_prefetch(ahead.values().data());
        if (meter != nullptr) meter->Prefetch(ahead.id());
      }
      const int64_t idx = eligible[static_cast<size_t>(i)];
      const int64_t client_id = clients[static_cast<size_t>(idx)].id();
      const BitRequest request{config.round_id, config.value_id,
                               assignment[static_cast<size_t>(i)],
                               config.epsilon};
      // Pre-emptive hedging: once the budget is nearly spent, every slot
      // gets a duplicate assignment reserved up front. Decided *before* the
      // slot runs so the hedge models a duplicate issued alongside the
      // original, not hindsight.
      const bool hedge_planned =
          res.hedge.enabled && res.budget.finite() &&
          clock >= res.hedge.trigger_budget_fraction * budget_minutes &&
          outcome.retry.hedges_issued < res.hedge.max_hedges_per_round;
      const SlotResult primary = run_slot(idx, request, /*allow_retries=*/true,
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
        continue;
      }
      outcome.failed_client_ids.push_back(client_id);
      // Reactive hedging: a straggler's report is *predicted late* the
      // moment its delay is known, so the duplicate goes out even before
      // the budget-pressure trigger fires.
      const bool hedge_wanted =
          res.hedge.enabled &&
          (hedge_planned || primary == SlotResult::kStraggledLate) &&
          outcome.retry.hedges_issued < res.hedge.max_hedges_per_round;
      if (!hedge_wanted) continue;
      const std::optional<int64_t> hedge_idx = next_pool_client();
      if (!hedge_idx.has_value()) continue;
      const int64_t hedge_id =
          clients[static_cast<size_t>(*hedge_idx)].id();
      ++outcome.retry.hedges_issued;
      const SlotResult hedged =
          run_slot(*hedge_idx, request, /*allow_retries=*/false,
                   /*is_hedge=*/true, /*backfill=*/false);
      if (hedged == SlotResult::kAccepted) {
        outcome.succeeded_client_ids.push_back(hedge_id);
        if (primary == SlotResult::kStraggledLate) {
          // The original's late duplicate is discarded by dedup: exactly
          // one report per work item enters the tally.
          ++outcome.retry.hedge_dedup_drops;
        }
      } else {
        ++outcome.retry.hedge_failures;
        outcome.failed_client_ids.push_back(hedge_id);
      }
    }
  };

  collect(active, /*backfill=*/false);

  // Bounded backfill: re-draw replacement clients from the pool until the
  // accepted-report count reaches the cohort target or the passes/pool run
  // out. Replacements run the same pipeline (faults included) and are
  // metered on response like any reporter.
  const int64_t target = static_cast<int64_t>(active.size());
  for (int64_t pass = 0; pass < config.fault_policy.max_backfill_rounds &&
                         static_cast<int64_t>(reports.size()) < target &&
                         pool_pos < config.backfill_pool.size();
       ++pass) {
    const int64_t need = target - static_cast<int64_t>(reports.size());
    std::vector<int64_t> draw;
    draw.reserve(static_cast<size_t>(need));
    while (static_cast<int64_t>(draw.size()) < need &&
           pool_pos < config.backfill_pool.size()) {
      draw.push_back(config.backfill_pool[pool_pos++]);
    }
    ++outcome.faults.backfill_rounds_used;
    collect(draw, /*backfill=*/true);
  }

  outcome.responded = static_cast<int64_t>(reports.size());
  if (resilience_on) outcome.retry.elapsed_minutes = clock;
  outcome.dropout_rate =
      outcome.contacted > 0
          ? 1.0 - static_cast<double>(outcome.responded) /
                      static_cast<double>(outcome.contacted)
          : 0.0;

  if (!config.use_secure_aggregation) {
    // Columnar tally (src/batch/): identical counts to the old per-report
    // Add loop — ones[j]/totals[j] are order-free sums — so the golden
    // campaign snapshots are unaffected, but the counting is a popcount
    // over packed words instead of a 16-byte-per-report scan.
    if (!reports.empty()) {
      AggregateBatch(ReportBatchFromBitReports(reports, bits))
          .AccumulateInto(&outcome.histogram);
    }
    return outcome;
  }

  // Secure aggregation: one session per bit group over the clients that
  // actually responded for that bit; the server learns only (sum, count).
  std::vector<std::vector<uint64_t>> group_bits(static_cast<size_t>(bits));
  for (const BitReport& report : reports) {
    group_bits[static_cast<size_t>(report.bit_index)].push_back(
        static_cast<uint64_t>(report.bit));
  }
  for (int j = 0; j < bits; ++j) {
    const std::vector<uint64_t>& group =
        group_bits[static_cast<size_t>(j)];
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
