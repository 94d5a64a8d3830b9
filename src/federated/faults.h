// Deterministic fault injection for the federated substrate.
//
// Section 4.3's deployment reality — devices drop out mid-round, reports
// straggle past the collection window, radios corrupt or truncate frames,
// and devices crash between the two rounds of the adaptive protocol — is
// modelled here as a seeded FaultPlan. Every decision is a pure hash of
// (seed, round, client), so injections are independent of iteration order
// and a plan reproduces byte-identically: the fault-matrix tests in
// tests/faults_test.cc pin exactly how the server degrades under each
// scenario.
//
// The server's reactions are policy, not accident (FaultPolicy): stragglers
// past the report deadline are rejected, lost reports are backfilled from
// replacement clients for a bounded number of passes, crashed clients that
// re-check-in are deduplicated (at most one assignment per client per
// query), and a round-1 loss above threshold degrades the round-2 rebalance
// to the static weighted policy. Every injection and every reaction is
// counted in FaultStats, surfaced through RoundOutcome and
// FederatedQueryResult for benches and the monitor pipeline.

#ifndef BITPUSH_FEDERATED_FAULTS_H_
#define BITPUSH_FEDERATED_FAULTS_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <limits>
#include <optional>
#include <vector>

#include "federated/report.h"

namespace bitpush {

enum class FaultType {
  kNone,
  kMidRoundDropout,     // assigned, vanishes before computing its report
  kStraggler,           // reports, but past the round's deadline
  kCorruptMessage,      // wire bytes of the report are flipped in flight
  kTruncateMessage,     // wire frame arrives short
  kRoundBoundaryCrash,  // crashes after a round-1 assignment, then
                        // re-checks-in for round 2
};

// Per-(round, client) fault probabilities. Each rate is in [0, 1] and the
// sum must not exceed 1; at most one fault strikes a given (round, client).
struct FaultRates {
  double mid_round_dropout = 0.0;
  double straggler = 0.0;
  double corrupt_message = 0.0;
  double truncate_message = 0.0;
  double round_boundary_crash = 0.0;

  // True when any rate is positive.
  bool Any() const;
};

// A seeded, deterministic fault schedule. Decisions are pure functions of
// (seed, round, client): two runs with the same plan inject exactly the
// same faults regardless of the order clients are processed in, which is
// what makes FaultStats a testable contract rather than a noisy sample.
class FaultPlan {
 public:
  // A disabled plan (never injects).
  FaultPlan();
  FaultPlan(uint64_t seed, const FaultRates& rates);

  bool enabled() const { return enabled_; }
  const FaultRates& rates() const { return rates_; }

  // The fault striking retry attempt `attempt` (0-based) of
  // (round_id, client_id), or kNone. kRoundBoundaryCrash is only ever
  // returned for round_id == 1 (it is the crash *between* rounds 1 and 2);
  // in other rounds its probability band maps to kNone so the remaining
  // rates are unaffected. The resilience layer (federated/resilience.h)
  // re-rolls the fault spectrum on every retry by folding the attempt
  // number into the hash salts, so enabling retries never perturbs what
  // attempt 0 injects.
  FaultType DecideAttempt(int64_t round_id, int64_t client_id,
                          int64_t attempt) const;

  // Flips 1-3 bytes of `buffer` (each XORed with a non-zero mask), at
  // positions derived from (seed, round, client, attempt), so each
  // retransmission is corrupted independently. At least one byte is
  // guaranteed to change on a non-empty buffer.
  void CorruptBuffer(int64_t round_id, int64_t client_id, int64_t attempt,
                     std::vector<uint8_t>* buffer) const;

  // The length a truncated frame of attempt `attempt` arrives with: a
  // deterministic value in [0, full_size - 1]. `full_size` must be >= 1.
  size_t TruncatedSize(int64_t round_id, int64_t client_id, int64_t attempt,
                       size_t full_size) const;

 private:
  uint64_t Hash(int64_t round_id, int64_t client_id, uint64_t salt) const;
  double HashUniform(int64_t round_id, int64_t client_id,
                     uint64_t salt) const;

  uint64_t seed_ = 0;
  FaultRates rates_;
  bool enabled_ = false;
};

// How the server reacts to faults. The defaults reproduce the pre-fault
// behavior exactly: no deadline, no backfill, never fall back.
struct FaultPolicy {
  // Reports arriving after this many minutes are rejected as late.
  // Infinity disables the cutoff (stragglers are accepted and counted).
  double report_deadline_minutes = std::numeric_limits<double>::infinity();
  // After the cohort pass, up to this many backfill passes re-draw
  // replacement clients (from RoundConfig::backfill_pool, in order) to
  // cover reports that were lost. Replacements go through the normal
  // request path, so the privacy meter charges them like any reporter.
  int64_t max_backfill_rounds = 0;
  // When round 1 loses more than this fraction of its contacted clients,
  // the round-2 rebalance is not trusted: the query falls back to the
  // static weighted policy (GeometricProbabilities gamma = 1, Eq. (7)).
  // The default 1.0 never triggers (loss can reach but not exceed 1).
  double max_round1_loss = 1.0;
};

// Counters for every injected fault and every server reaction. All counts
// are exact (no sampling), so tests assert equality, not tolerance.
struct FaultStats {
  // Injections, counted where the fault actually bites (a straggler that
  // organically dropped out never produced a report, so nothing straggled).
  int64_t injected_dropouts = 0;
  int64_t injected_stragglers = 0;
  int64_t injected_corruptions = 0;
  int64_t injected_truncations = 0;
  int64_t injected_crashes = 0;
  // Server reactions.
  int64_t late_reports_rejected = 0;   // straggler past a finite deadline
  int64_t late_reports_accepted = 0;   // straggler, no deadline configured
  int64_t corrupt_reports_rejected = 0;   // decode failed / invalid fields
  int64_t corrupt_reports_accepted = 0;   // decoded clean (possibly altered)
  int64_t truncated_reports_rejected = 0;
  int64_t recheckins_rejected = 0;     // crash-recheckin dedup
  int64_t backfill_requests = 0;       // replacement clients contacted
  int64_t backfill_reports = 0;        // replacement reports accepted
  int64_t backfill_rounds_used = 0;
  int64_t static_policy_fallbacks = 0;

  int64_t InjectedTotal() const;
  void MergeFrom(const FaultStats& other);

  friend bool operator==(const FaultStats&, const FaultStats&) = default;
};

// Serialization of the full counter block, in declaration order, for the
// durable-state layer (src/persist/). Decoding rejects negative counters
// and returns false without touching `*out`.
void EncodeFaultStats(const FaultStats& stats, std::vector<uint8_t>* out);
bool DecodeFaultStats(std::span<const uint8_t> buffer, size_t* offset,
                      FaultStats* out);

// Simulates the wire leg of attempt `attempt` for a faulted report:
// encodes it, applies the corruption or truncation the plan dictates, and
// runs the server's bounds-checked decode. Returns the report the decoder
// accepted (possibly altered by the corruption) or nullopt when the frame
// was rejected, updating the injection and reaction counters in `stats`.
// `fault` must be kCorruptMessage or kTruncateMessage.
std::optional<BitReport> DeliverFaultedReport(const FaultPlan& plan,
                                              int64_t round_id,
                                              int64_t client_id,
                                              int64_t attempt, FaultType fault,
                                              const BitReport& report,
                                              FaultStats* stats);

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_FAULTS_H_
