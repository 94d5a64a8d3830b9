// The aggregation server: orchestrates one bit-collection round over a
// cohort of clients, optionally routing per-bit tallies through simulated
// secure aggregation, and turns pooled histograms into mean estimates.

#ifndef BITPUSH_FEDERATED_SERVER_H_
#define BITPUSH_FEDERATED_SERVER_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/bit_pushing.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/client.h"
#include "federated/faults.h"
#include "federated/report.h"
#include "federated/resilience.h"
#include "obs/trace.h"
#include "rng/rng.h"

namespace bitpush {

struct RoundConfig {
  // Per-bit sampling probabilities (length = codec bits, sums to 1).
  std::vector<double> probabilities;
  // Randomized-response budget each client applies; <= 0 disables.
  double epsilon = 0.0;
  // Server-chosen bit indices (QMC) vs client-chosen. Under central
  // randomness the server tallies reports under the *assigned* index,
  // ignoring any index the client claims — the poisoning defense of
  // Section 5.
  bool central_randomness = true;
  // Route per-bit tallies through SecureAggregator so the server only ever
  // sees sums (Section 3.3).
  bool use_secure_aggregation = false;
  // Identifies the value being queried, for privacy metering.
  int64_t value_id = 0;
  int64_t round_id = 0;
  // Fault injection (nullptr runs a clean round) and the server's reaction
  // policy; the policy defaults reproduce clean-round behavior exactly.
  const FaultPlan* fault_plan = nullptr;
  FaultPolicy fault_policy;
  // Replacement clients (indices into `clients`), drawn in order by the
  // backfill passes when accepted reports fall short of the cohort.
  std::vector<int64_t> backfill_pool;
  // One byte per index into `clients`, nonzero for the clients assigned
  // in an earlier round of the same query. Their check-ins are rejected
  // and counted (the crash-recheckin dedup policy: at most one assignment
  // per client per query). Indices stand in for ids because a
  // population's client ids are unique.
  const std::vector<uint8_t>* already_assigned = nullptr;
  // Active recovery (federated/resilience.h): retries, hedged assignments,
  // and the round's deadline budget. The default disables everything and
  // reproduces pre-resilience behavior byte for byte.
  ResilienceConfig resilience;
  // Per-client circuit breaker consulted (read-only) during assignment;
  // quarantined clients are excluded from the cohort, backfill, and hedges.
  // Owned by the caller (typically the campaign); nullptr disables it. The
  // round never mutates it — the caller applies the outcome's
  // succeeded/failed lists at the round boundary.
  const HealthTracker* health = nullptr;
  // Threads the stage and apply steps of each collection pass may run on,
  // the caller included (federated/round_stages.h), overlapping the
  // caller's respond step; 1 runs them inline. Outcomes, draws and the
  // ledger are the same at every budget.
  int64_t workers = 1;
  // The span the round's step spans (round.stage, round.respond,
  // round.wait, round.apply) name as their parent: the caller's collect
  // span.
  obs::TraceContext trace_parent;
};

struct RoundOutcome {
  BitHistogram histogram;
  int64_t contacted = 0;
  int64_t responded = 0;
  // Reports rejected for carrying an out-of-range bit index (only possible
  // under local randomness, where the client names the index).
  int64_t malformed_reports = 0;
  double dropout_rate = 0.0;
  CommunicationStats comm;
  // Intended per-bit report counts from the QMC assignment (empty under
  // local randomness); compared against realized counts for the dropout
  // auto-adjustment of Section 4.3.
  std::vector<int64_t> intended_counts;
  // Injected-fault and server-reaction counters for this round.
  FaultStats faults;
  // Indices (into `clients`) that were issued an assignment this round,
  // including backfill replacements; feeds the next round's dedup set.
  std::vector<int64_t> assigned_clients;
  // Indices that crashed after assignment (kRoundBoundaryCrash) — the
  // clients that will attempt to re-check-in next round.
  std::vector<int64_t> crashed_clients;
  // Recovery-layer counters for this round (all zero when resilience is
  // disabled).
  RetryStats retry;
  // Client ids whose assignment ultimately produced an accepted report,
  // and ids whose assignment ultimately failed (dropout after retries,
  // rejected report, crash, late straggler), in decision order. These feed
  // HealthTracker::ObserveRound at the round boundary — recorded here, not
  // applied in-round, so a restored round updates the breaker identically
  // to a live one.
  std::vector<int64_t> succeeded_client_ids;
  std::vector<int64_t> failed_client_ids;
};

// Serialization of a completed round's full outcome, used by the journal's
// round-closed records (src/persist/). Decoding validates every field
// (counts non-negative, rates finite, histogram internally consistent) and
// returns false without touching `*out` on any violation.
void EncodeRoundOutcome(const RoundOutcome& outcome, std::vector<uint8_t>* out);
bool DecodeRoundOutcome(std::span<const uint8_t> buffer, size_t* offset,
                        RoundOutcome* out);

class AggregationServer {
 public:
  explicit AggregationServer(const FixedPointCodec& codec);

  const FixedPointCodec& codec() const { return codec_; }

  // Runs one round over clients[cohort[*]]. `meter` may be null.
  RoundOutcome RunRound(const std::vector<Client>& clients,
                        const std::vector<int64_t>& cohort,
                        const RoundConfig& config, PrivacyMeter* meter,
                        Rng& rng) const;

  // Unbiases, recombines, and decodes a pooled histogram into the value
  // domain. `epsilon` must match what the reports were perturbed with.
  double EstimateMean(const BitHistogram& histogram, double epsilon) const;

 private:
  FixedPointCodec codec_;
};

// Rebalances sampling probabilities after observing dropout: bit j's
// probability is scaled by intended_j / realized_j (clamped to [1/2, 2] for
// stability) so under-reported bits receive more assignments next round.
std::vector<double> AdjustProbabilitiesForDropout(
    const std::vector<double>& probabilities,
    const std::vector<int64_t>& intended_counts,
    const std::vector<int64_t>& realized_counts);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SERVER_H_
