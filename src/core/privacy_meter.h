// Privacy metering (Section 1.1): private data is metered at the *bit*
// level rather than the value level. The meter is the auditable ledger
// behind the paper's headline promise — "for each private value, at most
// one bit is used" — and behind platform-level disclosure caps ("limit
// subsequent bits per value and per client").
//
// Protocol code must obtain permission from the meter before a private bit
// leaves a client; a denied charge means the client skips the round.
//
// Durability: the ledger is exactly the state a coordinator must not lose
// across a crash — a recovering server that forgot a charge could let a
// second bit of the same value leave a client. The meter therefore supports
// (a) a Journal hook through which every charge attempt is write-ahead
// logged (and replayed exactly-once on recovery), and (b) canonical
// EncodeTo/DecodeFrom serialization for snapshots (src/persist/).

#ifndef BITPUSH_CORE_PRIVACY_METER_H_
#define BITPUSH_CORE_PRIVACY_METER_H_

#include <cstdint>
#include <limits>
#include <optional>
#include <unordered_map>
#include <vector>

namespace bitpush {

struct MeterPolicy {
  // Maximum bits that may ever be disclosed about one (client, value) pair.
  // 1 is the paper's worst-case guarantee.
  int64_t max_bits_per_value = 1;
  // Cap on total bits disclosed by one client across all values/rounds.
  int64_t max_bits_per_client = std::numeric_limits<int64_t>::max();
  // Cap on accumulated randomized-response epsilon per client (basic
  // composition across that client's reports).
  double max_epsilon_per_client = std::numeric_limits<double>::infinity();

  friend bool operator==(const MeterPolicy&, const MeterPolicy&) = default;
};

class PrivacyMeter {
 public:
  // Write-ahead journal hook. A durable coordinator installs one so every
  // charge decision is persisted before it takes effect, and so a recovery
  // replay can serve the recorded outcomes back without double-charging.
  class Journal {
   public:
    virtual ~Journal() = default;

    // Consulted before a charge is evaluated. Returning an outcome means
    // this attempt was already journaled (and already applied to the
    // restored ledger): the meter returns it verbatim and mutates nothing.
    // Returning nullopt lets the charge proceed normally.
    virtual std::optional<bool> OnChargeAttempt(int64_t client_id,
                                                int64_t value_id,
                                                double epsilon) = 0;

    // Called with the decision of a live (non-replayed) charge attempt,
    // before the ledger mutation is applied — the write-ahead discipline:
    // a crash after this call but before the in-memory update is recovered
    // by replaying the record.
    virtual void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                          bool granted) = 0;
  };

  explicit PrivacyMeter(MeterPolicy policy);

  // Installs (or clears, with nullptr) the write-ahead journal hook.
  void set_journal(Journal* journal) { journal_ = journal; }

  // Recovery-replay suppression for the flight recorder. While set, charge
  // decisions mutate the ledger but emit no events and advance no
  // first-grant/first-denial latches — used by recovery for the replay
  // *prefix* (the in-flight query's charges), whose events are instead
  // emitted when the re-execution is served the journaled outcomes, i.e.
  // at the same logical position as in an uninterrupted run.
  void set_replay_quiet(bool quiet) { replay_quiet_ = quiet; }

  // Emits the announcement a quietly replayed charge held back, for the
  // prefix charges of a round that recovery restores instead of
  // re-executing (so they are never re-served through the journal hook).
  void AnnounceReplayedCharge(int64_t value_id, bool granted) {
    NoteChargeOutcome(value_id, granted);
  }

  // Attempts to charge one disclosed bit about `value_id` from `client_id`
  // at randomized-response cost `epsilon` (0 for a noiseless bit). Returns
  // true and records the charge if all caps allow it; returns false and
  // records nothing otherwise. A negative or non-finite epsilon is invalid
  // and is always denied (it would corrupt the per-client composition
  // total).
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon);

  // Total bits disclosed across all clients.
  int64_t total_bits() const { return total_bits_; }
  // Total randomized-response epsilon granted across all clients (basic
  // composition; the cumulative privacy spend the observability layer
  // publishes).
  double total_epsilon() const { return total_epsilon_; }
  // Bits disclosed by one client so far.
  int64_t ClientBits(int64_t client_id) const;
  // Accumulated epsilon for one client.
  double ClientEpsilon(int64_t client_id) const;
  // Bits disclosed about one specific (client, value) pair.
  int64_t ValueBits(int64_t client_id, int64_t value_id) const;
  // Number of charges rejected by a cap (or by an invalid epsilon).
  int64_t denied_charges() const { return denied_charges_; }

  const MeterPolicy& policy() const { return policy_; }

  // Canonical serialization of policy + full ledger (clients and values in
  // sorted order, so equal meters encode to equal bytes). DecodeFrom
  // overwrites `*out` entirely; it returns false on truncated input or on
  // any internally inconsistent ledger (negative counts, per-value bits
  // that do not sum to the client total, non-finite epsilon, ...) without
  // touching `*out`.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static bool DecodeFrom(const std::vector<uint8_t>& buffer, size_t* offset,
                         PrivacyMeter* out);

 private:
  struct ClientLedger {
    int64_t bits = 0;
    double epsilon = 0.0;
    std::unordered_map<int64_t, int64_t> bits_per_value;
  };

  // Publishes the ledger totals as obs gauges (core/privacy_meter.cc);
  // called after every ledger mutation and after DecodeFrom so live,
  // replayed, and snapshot-restored meters all report the same spend.
  void RefreshObsGauges() const;

  // Flight-recorder hook: emits a kMeterCharge / kMeterDenial event the
  // *first* time a value id sees a grant (resp. a denial). Latching per
  // (value, outcome) keeps the stable event stream bounded — a campaign
  // charging thousands of clients produces at most two meter events per
  // value — while still marking the privacy-relevant transitions: "bits
  // started flowing for this value" and "the budget wall was hit".
  void NoteChargeOutcome(int64_t value_id, bool granted);

  MeterPolicy policy_;
  std::unordered_map<int64_t, ClientLedger> ledgers_;
  int64_t total_bits_ = 0;
  double total_epsilon_ = 0.0;
  int64_t denied_charges_ = 0;
  Journal* journal_ = nullptr;
  bool replay_quiet_ = false;
  // Per-value announcement latches: bit 0 = grant announced, bit 1 =
  // denial announced. Not serialized — DecodeFrom conservatively marks
  // restored values fully announced (snapshot-restored history is outside
  // the stable-event replay contract anyway).
  std::unordered_map<int64_t, uint8_t> announced_;
};

}  // namespace bitpush

#endif  // BITPUSH_CORE_PRIVACY_METER_H_
