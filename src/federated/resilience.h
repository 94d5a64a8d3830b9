// Resilient collection: deterministic retries, hedged assignments,
// per-client circuit breaking, and deadline budgets.
//
// The fault layer (federated/faults.h) models Section 4.3's failure
// reality; this module is the server's *active* response to it. Where the
// passive policies of FaultPolicy only reject and backfill, the resilience
// layer recovers: lost reports are retried with capped exponential backoff
// and decorrelated jitter, reports predicted to miss the deadline are
// hedged onto fresh clients, persistently failing clients are quarantined
// behind a circuit breaker, and the time all of this may consume is bounded
// by deadline budgets that propagate campaign -> query -> round -> report.
//
// Everything here is seeded and deterministic. Backoff jitter and retry
// fault decisions are pure hashes (no RNG stream is consumed), the virtual
// round clock advances by expected minutes from the LatencyModel, and the
// circuit breaker mutates only at round boundaries from the round's
// recorded success/failure lists — so a clean run, a re-run, and a
// crash-recovery replay (src/persist/) all produce byte-identical
// RetryStats, schedules, and estimates. docs/RESILIENCE.md documents the
// determinism contract and the privacy-meter interaction in full.

#ifndef BITPUSH_FEDERATED_RESILIENCE_H_
#define BITPUSH_FEDERATED_RESILIENCE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "federated/latency.h"

namespace bitpush {

// A time allowance in simulated LatencyModel minutes. Budgets flow down
// the scheduling hierarchy: a campaign grants each tick a budget, the tick
// splits it across its scheduled queries, a query splits its share across
// rounds proportional to cohort size, and a round clamps its straggler
// deadline to what remains. The default (infinite) disables every deadline
// it touches.
struct DeadlineBudget {
  double minutes = std::numeric_limits<double>::infinity();

  bool finite() const;
  // The proportional share `fraction` (in [0, 1]) of this budget.
  // An infinite budget stays infinite.
  DeadlineBudget Fraction(double fraction) const;
  // An even split across `parts` sequential consumers (parts >= 1).
  DeadlineBudget Split(int64_t parts) const;
  // min(deadline_minutes, minutes): the effective deadline a flat
  // per-round deadline collapses to under this budget.
  double ClampDeadline(double deadline_minutes) const;

  friend bool operator==(const DeadlineBudget&,
                         const DeadlineBudget&) = default;
};

// Capped exponential backoff with decorrelated jitter, plus the retry
// budgets. max_retries_per_client == 0 disables retries entirely (the
// default reproduces pre-resilience behavior exactly).
struct RetryPolicy {
  // Retry attempts per client per round beyond the first attempt.
  int64_t max_retries_per_client = 0;
  // Total retries across all clients of one round.
  int64_t max_retries_per_round = std::numeric_limits<int64_t>::max();
  // Decorrelated-jitter parameters: the k-th backoff is drawn (by hash,
  // not by RNG stream) from [base, 3 * previous], capped.
  double base_backoff_minutes = 0.5;
  double cap_backoff_minutes = 8.0;

  bool enabled() const { return max_retries_per_client > 0; }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

// Hedged (duplicated) assignments. When the round's deadline budget is
// nearly spent — the virtual clock has passed trigger_budget_fraction of
// the budget — or a report is predicted late (a straggler whose arrival
// falls past the effective deadline), a duplicate assignment goes to a
// fresh eligible client. First complete wins: if the original arrives in
// time the hedge is cancelled *before the duplicate client computes its
// report*, so the duplicate never discloses a bit and is never metered.
struct HedgePolicy {
  bool enabled = false;
  // Fraction of the round budget after which every at-risk assignment is
  // hedged pre-emptively (requires a finite budget).
  double trigger_budget_fraction = 0.75;
  int64_t max_hedges_per_round = std::numeric_limits<int64_t>::max();

  friend bool operator==(const HedgePolicy&, const HedgePolicy&) = default;
};

// Per-client circuit breaker thresholds. The breaker opens on either
// trigger; failure_rate_to_open == 1.0 disables the rate trigger and
// consecutive_failures_to_open == 0 disables the streak trigger (both
// disabled means no breaker).
struct BreakerPolicy {
  int64_t consecutive_failures_to_open = 0;
  double failure_rate_to_open = 1.0;
  // The rate trigger needs at least this many observations to fire.
  int64_t min_samples_for_rate = 8;
  // Rounds a newly opened breaker stays quarantined before one half-open
  // probe assignment is allowed through.
  int64_t cooldown_rounds = 1;

  bool enabled() const {
    return consecutive_failures_to_open > 0 || failure_rate_to_open < 1.0;
  }

  friend bool operator==(const BreakerPolicy&, const BreakerPolicy&) = default;
};

// The full recovery configuration threaded through campaign -> query ->
// round. The defaults disable every mechanism, reproducing pre-resilience
// behavior byte for byte.
struct ResilienceConfig {
  // Seeds the backoff jitter hashes (independent of the protocol RNG).
  uint64_t seed = 0;
  RetryPolicy retry;
  HedgePolicy hedge;
  BreakerPolicy breaker;
  // The budget at the level this config is handed to (per tick for a
  // campaign, per query / per round below it).
  DeadlineBudget budget;
  // Drives the virtual clock: each contact costs the expected per-device
  // collection minutes, so retries and hedges spend realistic time.
  LatencyModel latency;

  bool Enabled() const;

  friend bool operator==(const ResilienceConfig&,
                         const ResilienceConfig&) = default;
};

// Counters for every recovery decision, exact contracts like FaultStats.
struct RetryStats {
  int64_t retries_scheduled = 0;      // full re-requests (nothing disclosed)
  int64_t retransmits_requested = 0;  // wire-leg re-sends of a metered report
  int64_t retry_reports_recovered = 0;
  int64_t retries_exhausted = 0;      // per-client attempt cap hit
  int64_t retry_budget_denied = 0;    // per-round retry cap hit
  int64_t deadline_denied = 0;        // backoff would overrun the budget
  int64_t hedges_issued = 0;
  int64_t hedges_cancelled = 0;       // original won; duplicate never computed
  int64_t hedge_reports = 0;          // hedge won and was tallied
  int64_t hedge_failures = 0;
  int64_t hedge_dedup_drops = 0;      // late original discarded after its
                                      // hedge already won
  int64_t breaker_skips = 0;          // assignments withheld from quarantine
  int64_t breaker_probes = 0;         // half-open probe assignments
  int64_t breaker_opens = 0;
  int64_t breaker_closes = 0;
  // Total backoff minutes spent waiting on retries.
  double backoff_minutes = 0.0;
  // Virtual-clock minutes the collection consumed end to end.
  double elapsed_minutes = 0.0;

  // Reports that only exist because the resilience layer recovered them.
  int64_t RecoveredTotal() const;
  void MergeFrom(const RetryStats& other);

  friend bool operator==(const RetryStats&, const RetryStats&) = default;
};

// Serialization of the counter block, in declaration order, as it rides
// inside kRoundClosed journal records and ShardTickFrames. Decoding
// rejects negative counters and non-finite or negative minutes, and
// returns false without touching `*out`.
void EncodeRetryStats(const RetryStats& stats, std::vector<uint8_t>* out);
bool DecodeRetryStats(const std::vector<uint8_t>& buffer, size_t* offset,
                      RetryStats* out);

// Deterministic backoff schedule: the wait before retry `attempt`
// (1-based) of (round, client) under decorrelated jitter, derived entirely
// from hashes of (seed, round, client, attempt) — no RNG stream, so the
// schedule is independent of processing order and byte-stable across
// replays.
class RetrySchedule {
 public:
  RetrySchedule();  // disabled policy; BackoffMinutes must not be called
  RetrySchedule(uint64_t seed, const RetryPolicy& policy);

  double BackoffMinutes(int64_t round_id, int64_t client_id,
                        int64_t attempt) const;

 private:
  uint64_t seed_ = 0;
  RetryPolicy policy_;
};

enum class BreakerState : uint8_t {
  kClosed = 0,    // healthy: assignments flow
  kOpen = 1,      // quarantined: excluded from cohort, backfill, and hedges
  kHalfOpen = 2,  // cooldown elapsed: one probe assignment allowed
};

const char* BreakerStateName(BreakerState state);

// What the breaker says about assigning to a client right now.
enum class AssignmentDecision {
  kAssign,  // closed (or unknown) client: assign normally
  kProbe,   // half-open: assign as the probe that may close the breaker
  kSkip,    // open: withhold the assignment
};

// Per-client circuit breaker shared across the rounds and queries of a
// campaign. Reads (Decision) happen during assignment; writes happen only
// at round boundaries (BeginRound advances cooldowns, ObserveRound applies
// the round's recorded success/failure lists in order). Confining
// mutations to the round boundary is what makes recovery exact: a restored
// round re-applies its journaled outcome lists and the tracker lands in
// the same state as the live run, byte for byte.
class HealthTracker {
 public:
  HealthTracker();  // disabled policy: Decision always returns kAssign
  explicit HealthTracker(const BreakerPolicy& policy);

  const BreakerPolicy& policy() const { return policy_; }

  // Called once per collection round before any assignment: open breakers
  // count down their cooldown and move to half-open when it elapses.
  void BeginRound();

  AssignmentDecision Decision(int64_t client_id) const;
  BreakerState state(int64_t client_id) const;

  // Applies one round's outcome: successes first, then failures, each in
  // list order.
  void ObserveRound(int64_t round_id, const std::vector<int64_t>& succeeded,
                    const std::vector<int64_t>& failed);

  int64_t opens() const { return opens_; }
  int64_t closes() const { return closes_; }
  // Clients currently quarantined (open or half-open).
  int64_t quarantined_clients() const;
  int64_t tracked_clients() const {
    return static_cast<int64_t>(clients_.size());
  }

  // Canonical serialization (clients in ascending id order) for coordinator
  // snapshots. DecodeFrom requires `out` to be constructed with the same
  // policy the state was recorded under and fails closed on mismatch or on
  // any out-of-domain field.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static bool DecodeFrom(const std::vector<uint8_t>& buffer, size_t* offset,
                         HealthTracker* out);

 private:
  struct ClientHealth {
    BreakerState state = BreakerState::kClosed;
    int64_t consecutive_failures = 0;
    int64_t failures = 0;
    int64_t successes = 0;
    int64_t cooldown_remaining = 0;
  };

  bool ShouldOpen(const ClientHealth& health) const;

  BreakerPolicy policy_;
  // Ordered map: BeginRound and EncodeTo iterate deterministically.
  std::map<int64_t, ClientHealth> clients_;
  int64_t opens_ = 0;
  int64_t closes_ = 0;
};

// One-line human-readable summary for ops output (benches, monitors).
std::string RetryStatsSummary(const RetryStats& stats);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_RESILIENCE_H_
