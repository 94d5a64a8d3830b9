#include "federated/round.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "federated/obs_hooks.h"
#include "federated/persist_hooks.h"
#include "kernels/kernels.h"
#include "obs/trace.h"
#include "util/check.h"

namespace bitpush {

FederatedQueryResult RunFederatedMeanQuery(const std::vector<Client>& clients,
                                           const FixedPointCodec& codec,
                                           const FederatedQueryConfig& config,
                                           PrivacyMeter* meter, Rng& rng) {
  BITPUSH_CHECK_EQ(config.adaptive.bits, codec.bits());
  BITPUSH_CHECK_GT(config.adaptive.delta, 0.0);
  BITPUSH_CHECK_LT(config.adaptive.delta, 1.0);

  // Each stage draws from its own forked stream, derived unconditionally in
  // a fixed order. This makes the query crash-resumable: when recovery
  // restores a completed round instead of re-running it (skipping that
  // round's draws), the later stages still see exactly the streams an
  // uninterrupted run would have used.
  Rng cohort_rng = rng.Fork();
  Rng round1_rng = rng.Fork();
  Rng round2_rng = rng.Fork();

  FederatedQueryResult result;
  bool below_minimum = false;
  std::vector<int64_t> leftover;
  const std::vector<int64_t> cohort = SelectCohort(
      clients, nullptr, config.cohort, cohort_rng, &below_minimum, &leftover);
  if (below_minimum || cohort.size() < 2) {
    result.aborted = true;
    return result;
  }

  const int64_t n = static_cast<int64_t>(cohort.size());
  int64_t n1 = static_cast<int64_t>(
      std::llround(config.adaptive.delta * static_cast<double>(n)));
  n1 = std::clamp<int64_t>(n1, 1, n - 1);
  const std::vector<int64_t> cohort1(cohort.begin(), cohort.begin() + n1);
  const std::vector<int64_t> cohort2(cohort.begin() + n1, cohort.end());

  // Backfill pools are split disjointly by delta so a replacement client
  // can never serve both rounds (the same one-assignment-per-query
  // discipline the recheckin dedup enforces for the cohort itself).
  const int64_t pool1_size = std::clamp<int64_t>(
      static_cast<int64_t>(std::llround(
          config.adaptive.delta * static_cast<double>(leftover.size()))),
      0, static_cast<int64_t>(leftover.size()));
  std::vector<int64_t> pool1(leftover.begin(), leftover.begin() + pool1_size);
  std::vector<int64_t> pool2(leftover.begin() + pool1_size, leftover.end());

  const AggregationServer server(codec);
  const RandomizedResponse rr =
      RandomizedResponse::FromEpsilon(config.adaptive.epsilon);

  // Runs (or restores) one round with the breaker bracketing it: cooldowns
  // advance before assignment, and the round's contacts are applied at the
  // boundary (ObserveRoundHealth). Restored rounds take the same path —
  // the contact list and its bitmaps live in the journaled outcome — so a
  // recovered breaker is byte-identical to a live one. Open/close
  // transitions are folded into the query-level RetryStats.
  const auto run_or_restore_round =
      [&](int64_t round_id, RoundConfig& round_config,
          const std::vector<int64_t>& round_cohort, Rng& round_rng,
          RoundOutcome* outcome) {
        obs::Span span("round", "federated");
        span.set_ids(-1, -1, round_id);
        if (config.health != nullptr) config.health->BeginRound();
        bool restored = true;
        if (config.recorder == nullptr ||
            !config.recorder->RestoreRound(round_id, round_cohort, outcome)) {
          restored = false;
          obs::Span collect("collect", "federated");
          collect.set_ids(-1, -1, round_id);
          round_config.trace_parent = collect.context();
          *outcome =
              server.RunRound(clients, round_cohort, round_config, meter,
                              round_rng);
          collect.set_sim_minutes(outcome->retry.elapsed_minutes);
          collect.AddNumeric("responded",
                             static_cast<double>(outcome->responded));
          collect.End();
          if (config.recorder != nullptr) {
            config.recorder->OnRoundClosed(round_id, round_cohort, *outcome);
          }
        }
        // Round-boundary metrics, applied from the (possibly journaled)
        // outcome so restored rounds count exactly like live ones. Rounds
        // of queries that finished before a crash never reach this lambda;
        // recovery re-applies those from the journal (persist/recovery.cc).
        ObserveRoundOutcome(*outcome);
        span.set_sim_minutes(outcome->retry.elapsed_minutes);
        span.AddNumeric("contacted", static_cast<double>(outcome->contacted));
        span.AddNumeric("responded", static_cast<double>(outcome->responded));
        span.AddString("source", restored ? "restored" : "live");
        if (config.health != nullptr) {
          const int64_t opens_before = config.health->opens();
          const int64_t closes_before = config.health->closes();
          ObserveRoundHealth(round_id, *outcome, clients, config.health);
          result.retry.breaker_opens += config.health->opens() - opens_before;
          result.retry.breaker_closes +=
              config.health->closes() - closes_before;
          ObserveBreakerState(*config.health);
        }
        result.comm.MergeFrom(CommunicationStats::ForRound(
            outcome->contacted, outcome->responded));
        result.faults.MergeFrom(outcome->faults);
        result.retry.MergeFrom(outcome->retry);
      };

  // Round 1: input-independent geometric probe.
  RoundConfig round1_config;
  round1_config.probabilities =
      GeometricProbabilities(config.adaptive.bits, config.adaptive.gamma);
  round1_config.epsilon = config.adaptive.epsilon;
  round1_config.central_randomness = config.adaptive.central_randomness;
  round1_config.use_secure_aggregation = config.use_secure_aggregation;
  round1_config.value_id = config.value_id;
  round1_config.round_id = 1;
  round1_config.fault_plan = config.fault_plan;
  round1_config.fault_policy = config.fault_policy;
  round1_config.backfill_pool = std::move(pool1);
  round1_config.resilience = config.resilience;
  round1_config.health = config.health;
  round1_config.workers = config.round_workers;
  run_or_restore_round(1, round1_config, cohort1, round1_rng, &result.round1);

  // Learn the round-2 allocation — unless round 1 lost more than the
  // policy threshold, in which case the probe's means are too thin to
  // trust: degrade gracefully to the static weighted policy (gamma = 1,
  // the pessimistic-optimal Eq. (7) allocation) instead of rebalancing.
  const double round1_loss =
      result.round1.contacted > 0
          ? 1.0 - static_cast<double>(result.round1.responded) /
                      static_cast<double>(result.round1.contacted)
          : 1.0;
  std::vector<double> round2_probabilities;
  if (round1_loss > config.fault_policy.max_round1_loss) {
    round2_probabilities =
        GeometricProbabilities(config.adaptive.bits, 1.0);
    result.used_static_fallback = true;
    ++result.faults.static_policy_fallbacks;
  } else {
    round2_probabilities =
        LearnRound2Probabilities(result.round1.histogram, rr, config.adaptive,
                                 round1_config.probabilities);
    if (config.auto_adjust_dropout &&
        !result.round1.intended_counts.empty()) {
      round2_probabilities = AdjustProbabilitiesForDropout(
          round2_probabilities, result.round1.intended_counts,
          result.round1.histogram.totals);
    }
  }
  result.round2_probabilities = round2_probabilities;

  // Round 2 over the remaining cohort. Clients that crashed after their
  // round-1 assignment (round 1's crashed contacts, in contact order)
  // re-check-in here, after the cohort's tail; the server's dedup rejects
  // them, so no client is ever assigned twice in one query. The tail
  // shares no client with round 1's contacts (the cohort is a
  // permutation, and pool1 is cut from the leftover apart from pool2), so
  // the re-check-ins are exactly the trailing entries.
  std::vector<int64_t> cohort2_full = cohort2;
  const RoundOutcome& round1 = result.round1;
  for (size_t i = 0; i < round1.assigned_clients.size(); ++i) {
    if (ContactBit(round1.crashed, i)) {
      cohort2_full.push_back(round1.assigned_clients[i]);
    }
  }
  RoundConfig round2_config = round1_config;
  round2_config.probabilities = round2_probabilities;
  round2_config.round_id = 2;
  round2_config.backfill_pool = std::move(pool2);
  round2_config.recheckins =
      static_cast<int64_t>(cohort2_full.size() - cohort2.size());
  run_or_restore_round(2, round2_config, cohort2_full, round2_rng,
                       &result.round2);

  // Final aggregation, with caching per the protocol config.
  obs::Span aggregate_span("aggregate", "federated");
  aggregate_span.AddNumeric("value_id",
                            static_cast<double>(config.value_id));
  // Which kernel tallied this query's rounds (trace-only: spans are
  // excluded from the deterministic snapshot, so the attribute may vary
  // across machines without breaking golden comparisons).
  aggregate_span.AddString("kernel", kernels::ActiveKernel().name);
  PooledEstimate pooled = PoolAdaptiveRounds(
      result.round1.histogram, result.round2.histogram, rr, config.adaptive);
  result.final_bit_means = std::move(pooled.means);
  result.kept = std::move(pooled.kept);
  result.estimate = codec.Decode(pooled.estimate_codeword);
  return result;
}

}  // namespace bitpush
