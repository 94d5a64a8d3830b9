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
  // How many entries at the end of the cohort are re-check-ins: clients
  // that crashed after an assignment in an earlier round of the same
  // query. Their check-ins are rejected and counted (the crash-recheckin
  // dedup policy: at most one assignment per client per query), and the
  // round runs over the cohort before them.
  int64_t recheckins = 0;
  // Active recovery (federated/resilience.h): retries, hedged assignments
  // and the breaker's admission. The default disables everything and
  // reproduces pre-resilience behavior byte for byte.
  ResilienceConfig resilience;
  // Per-client circuit breaker consulted (read-only) during assignment;
  // quarantined clients are excluded from the cohort, backfill, and hedges.
  // Owned by the caller (typically the campaign); nullptr disables it. The
  // round never mutates it — the caller applies the outcome at the round
  // boundary (ObserveRoundHealth).
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
  // The round's two kept counts: contacts, and accepted reports. Its wire
  // cost follows from them (CommunicationStats::ForRound), and so does its
  // loss, 1 - responded / contacted. The codec does not store them: they
  // are the contact list's length and the `accepted` bitmap's count.
  int64_t contacted = 0;
  int64_t responded = 0;
  // Reports rejected for carrying an out-of-range bit index (only possible
  // under local randomness, where the client names the index).
  int64_t malformed_reports = 0;
  // Intended per-bit report counts from the QMC assignment (empty under
  // local randomness); compared against realized counts for the dropout
  // auto-adjustment of Section 4.3.
  std::vector<int64_t> intended_counts;
  // Injected-fault and server-reaction counters for this round.
  FaultStats faults;
  // Indices (into `clients`) that were issued an assignment this round,
  // including backfill replacements and hedges, in contact order: the
  // round's contact list. A contact is charged at most once, inside its
  // own slot, so contact order is the order of the meter's decisions.
  std::vector<uint32_t> assigned_clients;
  // Bitmaps over the contact list, bit i (word i / 64, bit i % 64) for
  // assigned_clients[i], each (contacts + 63) / 64 words long:
  //   charge_attempted  the contact's charge reached the meter (the client
  //                     did not drop out first); zero without a meter;
  //   charge_granted    the meter granted it, a subset of the attempts;
  //   accepted          the contact's slot ended in an accepted report;
  //   crashed           the contact struck kRoundBoundaryCrash and will
  //                     re-check-in next round; disjoint from accepted.
  // With the charged value id (RoundConfig::value_id) and the epsilon
  // every charge of the round is made at (RoundConfig::epsilon, or 0 when
  // that is not positive) the charge bitmaps are the round's charge
  // decisions, which recovery replays through the meter
  // (persist/recovery.h). The breaker's view of the round is the contact
  // list split by `accepted` (ObserveRoundHealth).
  std::vector<uint64_t> charge_attempted;
  std::vector<uint64_t> charge_granted;
  std::vector<uint64_t> accepted;
  std::vector<uint64_t> crashed;
  double charge_epsilon = 0.0;
  // Recovery-layer counters for this round (all zero when resilience is
  // disabled).
  RetryStats retry;
};

// Bit `contact` of a bitmap over a round's contact list.
inline bool ContactBit(const std::vector<uint64_t>& bitmap, size_t contact) {
  return (bitmap[contact / 64] >> (contact % 64) & 1) != 0;
}

// The contacts a bitmap over a round's contact list marks.
int64_t CountContacts(const std::vector<uint64_t>& bitmap);

// Serialization of a completed round's full outcome, used by the journal's
// round-closed records (src/persist/). Decoding validates every field
// (counts non-negative, histogram internally consistent, each bitmap as
// long as the contact list with no bit past it, no grant without an
// attempt, no contact both accepted and crashed, `faults.injected_crashes`
// the crashed contacts, and no grant at a non-finite or negative epsilon),
// sets `contacted` and `responded` from the contact list and `accepted`,
// and returns false without touching `*out` on any violation.
void EncodeRoundOutcome(const RoundOutcome& outcome, std::vector<uint8_t>* out);
bool DecodeRoundOutcome(std::span<const uint8_t> buffer, size_t* offset,
                        RoundOutcome* out);

// Applies a closed round to the circuit breaker at its boundary
// (HealthTracker::ObserveRound): the client ids of its accepted contacts
// succeeded and those of the rest failed, each in contact order. The live
// and restored paths both apply a round here, from its outcome, so a
// recovered breaker matches a live one. A no-op when the breaker is off.
void ObserveRoundHealth(int64_t round_id, const RoundOutcome& outcome,
                        const std::vector<Client>& clients,
                        HealthTracker* health);

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
