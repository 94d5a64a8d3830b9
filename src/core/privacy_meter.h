// Privacy metering (Section 1.1): private data is metered at the *bit*
// level rather than the value level. The meter is the auditable ledger
// behind the paper's headline promise — "for each private value, at most
// one bit is used" — and behind platform-level disclosure caps ("limit
// subsequent bits per value and per client").
//
// Protocol code must obtain permission from the meter before a private bit
// leaves a client; a denied charge means the client skips the round.
//
// Layout: the ledger is dense 16-byte rows, one per client the meter
// knows: the client's epsilon total, and as 32-bit counts its bit total
// and its count for the meter's first value id. Each further value id has
// one 32-bit count column, indexed by row. A meter is bound to the ids it
// meters before anything reads it. Ids on one lattice first + k * stride
// (a population in slot order: MakePopulation, a round-robin shard) take
// rows 0, 1, ... in that order, found by arithmetic, with no id column
// stored. Any other id goes through a hashed directory to a row after the
// lattice rows. Rows are added only when an id is registered (Register, or
// a one-step charge of an id without a row), never by a staged charge, so
// that a round that registers its clients up front updates every row in
// place. A count that would pass UINT32_MAX is denied like a cap.
//
// Durability: the ledger is exactly the state a coordinator must not lose
// across a crash — a recovering server that forgot a charge could let a
// second bit of the same value leave a client. The meter therefore supports
// (a) a Journal hook through which every charge decision is write-ahead
// logged (recovery re-applies the journaled charges through ReplayCharges,
// which decides each one as TryChargeBit does and journals nothing,
// exactly once), and (b) canonical EncodeTo/DecodeFrom serialization for
// snapshots (src/persist/). The encoding does not depend on the row
// layout: clients and values in id order, zero entries omitted. Lattice
// rows are in id order already, so EncodeTo is one pass over them, sized
// from the listed entries the charges counted; the directory's rows, which
// only unbound meters and tests have, are ordered at encode. DecodeFrom
// fills the rows of the meter it decodes into. A recovering coordinator's
// meter has its registration closed (every id it meters has a row or a
// count), so neither its decode nor its replay adds a row or a column:
// input that names another id is corrupt, and the memory they use stays
// that of the bound meter.

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

  // The row of an id that has none.
  static constexpr size_t kNoRow = SIZE_MAX;

  // What a charge reads from the ledger: where the client's row is, its
  // totals, and the count of the charged value.
  struct ChargeLookup {
    size_t row = kNoRow;
    int64_t client_bits = 0;
    double client_epsilon = 0.0;
    int64_t value_bits = 0;
  };

  explicit PrivacyMeter(MeterPolicy policy);

  // Installs (or clears, with nullptr) the write-ahead journal hook.
  void set_journal(Journal* journal) { journal_ = journal; }

  // Binds the lattice first + k * stride, k < count, to rows 0..count-1.
  // The ids must not overflow (first + (count - 1) * stride <= INT64_MAX)
  // and stride must be positive. Only a meter without rows is bound.
  void BindLattice(int64_t first, int64_t stride, size_t count);
  // Gives `client_id` a row if it has none, and returns its row. A new row
  // of an id off the lattice may move every row.
  size_t Register(int64_t client_id);
  // Gives `value_id` a count if it has none, and returns its index: 0 for
  // the meter's first value id, whose counts the rows hold.
  size_t RegisterValue(int64_t value_id);
  // Closes the meter's registration: its owner has given a row to every
  // client and a count to every value the meter will meter
  // (MeasurementCampaign::BindPopulations). A round then registers no
  // client (AggregationServer::RunRound), and DecodeFrom rejects a ledger
  // that names another id.
  void CloseRegistration() { registration_closed_ = true; }
  bool registration_closed() const { return registration_closed_; }
  // The row of `client_id`, or kNoRow.
  size_t Row(int64_t client_id) const {
    const uint64_t offset =
        static_cast<uint64_t>(client_id) - static_cast<uint64_t>(first_);
    const uint64_t k =
        stride_shift_ >= 0 ? offset >> stride_shift_ : offset / stride_;
    if (k < lattice_rows_ && k * stride_ == offset) {
      return static_cast<size_t>(k);
    }
    return DirectoryRow(client_id);
  }
  // Rows, bound or registered: a lookup's row is below it.
  size_t rows() const { return rows_.size(); }

  // Attempts to charge one disclosed bit about `value_id` from `client_id`
  // at randomized-response cost `epsilon` (0 for a noiseless bit). Returns
  // true and records the charge if all caps allow it; returns false and
  // records nothing otherwise. A negative or non-finite epsilon is invalid
  // and is always denied (it would corrupt the per-client composition
  // total). Registers the client and the value first, then composes the
  // three steps below: Lookup, the ordered TryChargeBit, and ApplyCharge
  // of a grant; it then refreshes the obs gauges.
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon);

  // The steps of a charge, for a caller that registers its clients and
  // value, looks rows up ahead of the charges and updates them after (a
  // collection round):
  //
  // Step 1: reads what a charge of value `value` (RegisterValue's index)
  // to `row` decides on; a kNoRow row or value reads as zero. Changes
  // nothing, so lookups may run concurrently with each other.
  ChargeLookup Lookup(size_t row, size_t value) const;
  // Step 2, the ordered one: decides the charge against `lookup`, which
  // must read as the ledger will once every earlier charge is applied,
  // journals the decision, adds it to the totals and the denied count, and
  // announces the value's first grant or denial. No row changes: a grant
  // is owed to ApplyCharge. The obs gauges are left to PublishObsGauges.
  bool TryChargeBit(int64_t client_id, int64_t value_id, double epsilon,
                    const ChargeLookup& lookup);
  // Step 3: adds a grant of value `value` at `epsilon` to `row`. Adds no
  // row, so calls for distinct rows may run concurrently.
  void ApplyCharge(size_t row, size_t value, double epsilon);

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
  // differs from its recorded one, or that grants a bit of a client or a
  // value the meter holds no row or count for (the meter a replay runs on
  // has its registration closed), which it leaves unapplied, and returns
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
  void Prefetch(int64_t client_id) const {
    const size_t row = Row(client_id);
    if (row != kNoRow) __builtin_prefetch(&rows_[row], /*rw=*/1);
  }

  const MeterPolicy& policy() const { return policy_; }

  // Canonical serialization of policy + full ledger (clients and values in
  // sorted order, so equal meters encode to equal bytes). DecodeFrom
  // overwrites the ledger of `*out` entirely and keeps its binding: it
  // checks the whole input first, then fills the rows of the listed ids,
  // registering those that have none, and zeroes the rest. It returns
  // false on truncated input, on an id `*out` lacks when its registration
  // is closed, or on any internally inconsistent ledger (negative counts,
  // counts above UINT32_MAX, per-value bits that do not sum to the client
  // total, non-finite epsilon, duplicate ids, ...) without touching
  // `*out`. Into a closed meter it allocates only what its checks need, in
  // proportion to the input; otherwise each new value id costs a column as
  // long as the rows. It decodes in place from a span of the buffer the
  // ledger was read into (a snapshot file image); a vector converts to
  // one.
  void EncodeTo(std::vector<uint8_t>* out) const;
  static bool DecodeFrom(std::span<const uint8_t> buffer, size_t* offset,
                         PrivacyMeter* out);

 private:
  // One client's ledger: its epsilon total, its bit total and its count
  // for value index 0.
  struct LedgerRow {
    double epsilon = 0.0;
    uint32_t bits = 0;
    uint32_t first_value_bits = 0;
  };
  static_assert(sizeof(LedgerRow) == 16);

  // The (value, outcome) pair a replay pass announced last, and the value
  // index it charged last, so that it looks each up once per run of equal
  // values rather than per charge.
  struct ReplayLatch {
    int64_t value_id = 0;
    size_t value = kNoRow;
    uint8_t outcomes = 0;
  };

  // The directory row of `client_id`, or kNoRow.
  size_t DirectoryRow(int64_t client_id) const;
  // The index of `value_id`, or kNoRow.
  size_t ValueIndex(int64_t value_id) const;
  // The count of value index `value` in `row`.
  uint32_t CountOf(size_t row, size_t value) const {
    return value == 0 ? rows_[row].first_value_bits
                      : columns_[value - 1][row];
  }
  // Lookup by id: zeros for an id without a row or a value not
  // registered.
  ChargeLookup LookupId(int64_t client_id, int64_t value_id) const;

  // The decision of a charge at `epsilon` against `lookup`.
  bool Allows(const ChargeLookup& lookup, double epsilon) const;
  // Adds a decided charge to the totals, the denied count and the counts
  // of listed entries EncodeTo sizes its output by.
  void AddToTotals(bool granted, double epsilon, const ChargeLookup& lookup);
  // One step of ReplayCharges: decides the charge and, when the decision
  // is `granted`, applies it. False, with nothing applied, otherwise.
  bool ReplayCharge(int64_t client_id, int64_t value_id, double epsilon,
                    bool granted, ReplayLatch* latch);

  // Flight-recorder hook: emits a kMeterCharge / kMeterDenial event the
  // *first* time a value id sees a grant (resp. a denial). Latching per
  // (value, outcome) keeps the stable event stream bounded — a campaign
  // charging thousands of clients produces at most two meter events per
  // value — while still marking the privacy-relevant transitions: "bits
  // started flowing for this value" and "the budget wall was hit". Its
  // callers test obs::Enabled() first.
  void NoteChargeOutcome(int64_t value_id, bool granted);

  MeterPolicy policy_;
  // The lattice: rows [0, lattice_rows_) hold ids first_ + k * stride_;
  // stride_shift_ is log2(stride_) when the stride is a power of two, and
  // -1 otherwise.
  int64_t first_ = 0;
  uint64_t stride_ = 1;
  int stride_shift_ = 0;
  size_t lattice_rows_ = 0;
  std::vector<LedgerRow> rows_;
  // The rows of off-lattice ids.
  std::unordered_map<int64_t, size_t> directory_;
  // The registered value ids, by index, and their indices in value-id
  // order; column v - 1 holds the counts of value index v >= 1.
  std::vector<int64_t> value_ids_;
  std::vector<size_t> value_order_;
  std::vector<std::vector<uint32_t>> columns_;
  bool registration_closed_ = false;
  // Entries EncodeTo lists: rows with bits or epsilon, and nonzero
  // (client, value) counts.
  size_t listed_clients_ = 0;
  size_t listed_values_ = 0;
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
  // As far ahead as a round's stage step prefetches.
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
