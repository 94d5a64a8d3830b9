// End-to-end federated mean query: the adaptive two-round protocol of
// Algorithm 2 executed over the client/server machinery (cohort selection,
// dropout, privacy metering, optional secure aggregation, optional dropout
// auto-adjustment of sampling probabilities).
//
// This is the integration point a deployment would call; the functional
// core in src/core/ is the same math over flat vectors.

#ifndef BITPUSH_FEDERATED_ROUND_H_
#define BITPUSH_FEDERATED_ROUND_H_

#include <cstdint>
#include <vector>

#include "core/adaptive.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/client.h"
#include "federated/cohort.h"
#include "federated/server.h"
#include "rng/rng.h"

namespace bitpush {

class QueryRecorder;  // federated/persist_hooks.h

struct FederatedQueryConfig {
  // Protocol parameters (bits, gamma, alpha, delta, epsilon, caching,
  // squashing). bits must match the codec.
  AdaptiveConfig adaptive;
  CohortPolicy cohort;
  bool use_secure_aggregation = false;
  // Rebalance round-2 probabilities using round-1 dropout observations
  // (Section 4.3, "the bit sampling probabilities were auto-adjusted based
  // on the dropout rate").
  bool auto_adjust_dropout = false;
  int64_t value_id = 0;
  // Fault injection (nullptr runs clean) and the server's reaction policy:
  // report deadline, bounded cohort backfill, and the round-1 loss
  // threshold past which the round-2 rebalance degrades to the static
  // weighted policy.
  const FaultPlan* fault_plan = nullptr;
  FaultPolicy fault_policy;
  // Durability hook (nullptr runs without journaling). A recorder can
  // restore an already-journaled round instead of re-running it; see
  // federated/persist_hooks.h for the recovery model.
  QueryRecorder* recorder = nullptr;
  // Active recovery (federated/resilience.h). `resilience.budget` is this
  // *query's* deadline budget; each round receives the share proportional
  // to its cohort fraction. The default disables everything.
  ResilienceConfig resilience;
  // Per-client circuit breaker, owned by the caller (typically the
  // campaign, so quarantine spans queries). The query consults it during
  // assignment and feeds it each round's contact list split by `accepted`
  // at the round boundary (ObserveRoundHealth) — for restored rounds too,
  // which is what keeps the breaker byte-identical across a
  // crash/recovery cycle.
  HealthTracker* health = nullptr;
  // Threads each round's stage and apply steps may run on
  // (RoundConfig::workers). ShardedCampaignRunner sets it to the CPUs its
  // shard tasks leave idle; the results do not depend on it.
  int64_t round_workers = 1;
};

struct FederatedQueryResult {
  // True when the eligible cohort was below the privacy minimum; no
  // protocol messages were sent.
  bool aborted = false;
  // Mean estimate in the value domain (valid when !aborted).
  double estimate = 0.0;
  RoundOutcome round1;
  RoundOutcome round2;
  std::vector<double> round2_probabilities;
  std::vector<double> final_bit_means;
  std::vector<bool> kept;
  CommunicationStats comm;
  // Pooled fault/reaction counters across both rounds (plus the
  // query-level static-policy fallback, if it fired).
  FaultStats faults;
  // True when round-1 losses exceeded fault_policy.max_round1_loss and the
  // round-2 allocation fell back to the static weighted policy instead of
  // the learned rebalance.
  bool used_static_fallback = false;
  // Pooled recovery-layer counters across both rounds, including the
  // breaker transitions this query's outcomes caused.
  RetryStats retry;
};

// Runs the full two-round query over `clients`. `meter` may be null.
FederatedQueryResult RunFederatedMeanQuery(const std::vector<Client>& clients,
                                           const FixedPointCodec& codec,
                                           const FederatedQueryConfig& config,
                                           PrivacyMeter* meter, Rng& rng);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_ROUND_H_
