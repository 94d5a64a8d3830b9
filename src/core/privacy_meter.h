// Privacy metering (Section 1.1): private data is metered at the *bit*
// level rather than the value level. The meter is the auditable ledger
// behind the paper's headline promise — "for each private value, at most
// one bit is used" — and behind platform-level disclosure caps ("limit
// subsequent bits per value and per client").
//
// Protocol code must obtain permission from the meter before a private bit
// leaves a client; a denied charge means the client skips the round.
//
// Layout: the ledger is two open-addressed, power-of-two tables of
// fixed-size rows, probed linearly and doubled at half load. The client
// table holds one row per client: its bit and epsilon totals plus the id
// and count of its first value, inline. Counts of a client's further
// values go in a second table keyed by the (client, value) pair. A
// campaign charges one value id per metric, so a charge usually touches a
// single row. Memory stays proportional to the ledger's nonzero entries:
// there is no per-value column and no per-client heap allocation, and a
// decoded ledger sizes its tables from the entries it read, never from a
// count claimed on disk.
//
// Durability: the ledger is exactly the state a coordinator must not lose
// across a crash — a recovering server that forgot a charge could let a
// second bit of the same value leave a client. The meter therefore supports
// (a) a Journal hook through which every charge decision is write-ahead
// logged (recovery re-applies the journaled charges through ReplayCharges,
// which decides each one as TryChargeBit does and journals nothing,
// exactly once), and (b) canonical EncodeTo/DecodeFrom serialization for
// snapshots (src/persist/). The encoding does not depend on the table
// layout: clients and values sorted by id, zero entries omitted.

#ifndef BITPUSH_CORE_PRIVACY_METER_H_
#define BITPUSH_CORE_PRIVACY_METER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
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
  // charge decision is persisted before it takes effect.
  class Journal {
   public:
    virtual ~Journal() = default;

    // Called with the decision of every charge attempt, before the ledger
    // mutation is applied — the write-ahead discipline: a crash after this
    // call but before the in-memory update is recovered by re-applying the
    // record.
    virtual void OnCharge(int64_t client_id, int64_t value_id, double epsilon,
                          bool granted) = 0;
  };

  // The row of a client that has none.
  static constexpr size_t kNoRow = SIZE_MAX;

  // What a charge reads from the ledger: the client's totals, the count of
  // the charged value, and where the client's row is.
  struct ChargeLookup {
    // The client's row in the client table, or kNoRow when it has none.
    size_t row = kNoRow;
    int64_t client_bits = 0;
    double client_epsilon = 0.0;
    int64_t value_bits = 0;
    // Whether a grant of the value updates the client's row alone: false
    // when the row holds another value inline, so that the count lives in
    // the value table.
    bool value_in_row = true;
  };

  explicit PrivacyMeter(MeterPolicy policy);

  // Installs (or clears, with nullptr) the write-ahead journal hook.
  void set_journal(Journal* journal) { journal_ = journal; }

  // Attempts to charge one disclosed bit about `value_id` from `client_id`
  // at randomized-response cost `epsilon` (0 for a noiseless bit). Returns
  // true and records the charge if all caps allow it; returns false and
  // records nothing otherwise. A negative or non-finite epsilon is invalid
  // and is always denied (it would corrupt the per-client composition
  // total). It is the composition of the three steps below: Lookup, the
  // ordered TryChargeBit, and ApplyCharge of a grant; it then refreshes
  // the obs gauges.
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon);

  // The steps of a charge, for a caller that looks rows up ahead of the
  // charges and updates them after (a collection round):
  //
  // Step 1: reads what a charge of `value_id` from `client_id` decides on.
  // Changes nothing, so lookups may run concurrently with each other.
  ChargeLookup Lookup(int64_t client_id, int64_t value_id) const;
  // Step 2, the ordered one: decides the charge against `lookup`, which
  // must read as the ledger will once every earlier charge is applied,
  // journals the decision, adds it to the totals and the denied count, and
  // announces the value's first grant or denial. No row changes: a grant
  // is owed to ApplyCharge. The obs gauges are left to PublishObsGauges.
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon,
                    const ChargeLookup& lookup);
  // Step 3: adds a grant of `value_id` at `epsilon` to the client's row.
  // `lookup` is a lookup of the client for `value_id` taken since the last
  // row was added (grants change neither its row nor its value_in_row,
  // which is all it reads). Calls for distinct clients whose lookup has a
  // row and value_in_row touch only that row and may run concurrently; any
  // other call may add rows, so it must run alone, in charge order.
  void ApplyCharge(int64_t client_id, int64_t value_id, double epsilon,
                   const ChargeLookup& lookup);
  // Rows of the client table, used or free: a lookup's row is below it,
  // and it changes only when a row is added.
  size_t client_table_rows() const { return clients_.size(); }

  // Publishes the ledger totals as obs gauges. The composed TryChargeBit,
  // ReplayCharges and DecodeFrom call it; a caller of the steps calls it
  // once its charges are made (a round, at its close).
  void PublishObsGauges() const;

  // Re-applies `count` journaled charge decisions in journal order, as
  // recovery does: each is decided exactly as TryChargeBit decides it, but
  // nothing is journaled. `decision_at(i)` returns the i-th as an object
  // with client_id, value_id, epsilon and granted members. The ledger rows
  // are loaded a few charges ahead, the flight-recorder events land in
  // charge order as TryChargeBit emits them, and the obs gauges are
  // refreshed once, at the end. Stops at the first charge whose decision
  // differs from its recorded one, which it leaves unapplied, and returns
  // how many it applied (`count` when every decision reproduced).
  template <typename DecisionAt>
  size_t ReplayCharges(size_t count, const DecisionAt& decision_at);

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

  // Starts loading the ledger row a charge for `client_id` would read, so
  // a caller that knows its next clients can overlap their cache misses.
  // A hint only: it changes no state.
  void Prefetch(int64_t client_id) const;

  const MeterPolicy& policy() const { return policy_; }

  // Canonical serialization of policy + full ledger (clients and values in
  // sorted order, so equal meters encode to equal bytes). DecodeFrom
  // overwrites `*out` entirely; it returns false on truncated input or on
  // any internally inconsistent ledger (negative counts, per-value bits
  // that do not sum to the client total, non-finite epsilon, duplicate
  // ids, ...) without touching `*out`. It decodes in place, in one pass,
  // from a span of the buffer the ledger was read into (a snapshot file
  // image); a vector converts to one.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static bool DecodeFrom(std::span<const uint8_t> buffer, size_t* offset,
                         PrivacyMeter* out);

 private:
  // A row whose `bits` is kFreeRow, never a count, is free, so that no
  // client id (not even INT64_MIN or INT64_MAX) is reserved as the
  // empty-slot key.
  static constexpr int64_t kFreeRow = -1;

  // One client's ledger, with its first value's count inline: `value_bits`
  // stays 0 until the client has a nonzero count, and only a client with
  // an inline value has rows in values_.
  struct ClientRow {
    int64_t client_id = 0;
    int64_t bits = kFreeRow;
    double epsilon = 0.0;
    int64_t value_id = 0;
    int64_t value_bits = 0;

    bool used() const { return bits != kFreeRow; }
  };
  // The count of one (client, value) pair other than the client's inline
  // value; positive in a used row.
  struct ValueRow {
    int64_t client_id = 0;
    int64_t value_id = 0;
    int64_t bits = kFreeRow;

    bool used() const { return bits != kFreeRow; }
  };

  // The index of the client's row, or of the free row where it would go.
  // clients_ must not be empty.
  size_t ClientSlot(int64_t client_id) const;
  // The client's row, or nullptr.
  const ClientRow* FindClient(int64_t client_id) const;
  // Bits disclosed about `value_id` by the client whose row is `row`.
  int64_t ValueBitsOf(const ClientRow& row, int64_t value_id) const;
  // Adds a row for a client that has none and returns it. May move every
  // row of clients_.
  ClientRow& InsertClient(int64_t client_id);
  // Adds `bits` to a (client, value) count kept in values_.
  void AddExtraValueBits(int64_t client_id, int64_t value_id, int64_t bits);

  // The decision of a charge at `epsilon` against `lookup`.
  bool Allows(const ChargeLookup& lookup, double epsilon) const;
  // Adds a decided charge to the totals and the denied count.
  void AddToTotals(bool granted, double epsilon);
  // Adds one grant of `value_id` at `epsilon` to `row`.
  void AddToRow(ClientRow* row, int64_t value_id, double epsilon);

  // The (value, outcome) pair a replay pass announced last, so that it
  // probes announced_ once per run of equal pairs rather than per charge.
  struct ReplayLatch {
    int64_t value_id = 0;
    uint8_t outcomes = 0;
  };
  // One step of ReplayCharges: decides the charge and, when the decision
  // is `granted`, applies it. False, with nothing applied, otherwise.
  bool ReplayCharge(int64_t client_id, int64_t value_id, double epsilon,
                    bool granted, ReplayLatch* latch);

  // Flight-recorder hook: emits a kMeterCharge / kMeterDenial event the
  // *first* time a value id sees a grant (resp. a denial). Latching per
  // (value, outcome) keeps the stable event stream bounded — a campaign
  // charging thousands of clients produces at most two meter events per
  // value — while still marking the privacy-relevant transitions: "bits
  // started flowing for this value" and "the budget wall was hit".
  void NoteChargeOutcome(int64_t value_id, bool granted);

  MeterPolicy policy_;
  // Power-of-two sized (or empty) open-addressed tables; see the file
  // comment.
  std::vector<ClientRow> clients_;
  size_t client_count_ = 0;
  std::vector<ValueRow> values_;
  size_t value_count_ = 0;
  int64_t total_bits_ = 0;
  double total_epsilon_ = 0.0;
  int64_t denied_charges_ = 0;
  Journal* journal_ = nullptr;
  // Per-value announcement latches: bit 0 = grant announced, bit 1 =
  // denial announced. Not serialized — DecodeFrom conservatively marks
  // restored values fully announced (snapshot-restored history is outside
  // the stable-event replay contract anyway).
  std::unordered_map<int64_t, uint8_t> announced_;
};

template <typename DecisionAt>
size_t PrivacyMeter::ReplayCharges(size_t count,
                                   const DecisionAt& decision_at) {
  // As far ahead as RunRound's slot loop prefetches.
  constexpr size_t kAhead = 8;
  ReplayLatch latch;
  size_t applied = 0;
  for (; applied < count; ++applied) {
    if (applied + kAhead < count) {
      Prefetch(decision_at(applied + kAhead).client_id);
    }
    const auto decision = decision_at(applied);
    if (!ReplayCharge(decision.client_id, decision.value_id,
                      decision.epsilon, decision.granted, &latch)) {
      break;
    }
  }
  PublishObsGauges();
  return applied;
}

}  // namespace bitpush

#endif  // BITPUSH_CORE_PRIVACY_METER_H_
