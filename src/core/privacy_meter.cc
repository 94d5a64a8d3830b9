#include "core/privacy_meter.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Encoded sizes of the ledger header (policy, totals and client count), of
// one client entry without its values (id, bits, epsilon, value count) and
// of one value entry (id, bits). DecodeFrom bounds the counts it reads by
// the bytes that remain, and checks each entry's bounds once.
constexpr size_t kHeaderBytes = 8 + 8 + 8 + 8 + 8 + 4;
constexpr size_t kClientEntryBytes = 8 + 8 + 8 + 4;
constexpr size_t kValueEntryBytes = 8 + 8;
// The largest count a row or a column holds.
constexpr int64_t kMaxCount = std::numeric_limits<uint32_t>::max();

// Whether the encoding lists a client with these totals.
bool Listed(int64_t bits, double epsilon) { return bits > 0 || epsilon > 0.0; }

// One client entry of an encoded ledger: its fields, and where its value
// entries start.
struct ClientEntry {
  int64_t client_id = 0;
  int64_t bits = 0;
  double epsilon = 0.0;
  uint32_t value_count = 0;
  const uint8_t* values = nullptr;

  // The byte after its value entries, which the caller checked.
  const uint8_t* end() const {
    return values + value_count * kValueEntryBytes;
  }
};

// Reads the client entry at `at`, whose kClientEntryBytes the caller
// checked.
ClientEntry ReadClientEntry(const uint8_t* at) {
  return ClientEntry{bytes::LoadInt64(at), bytes::LoadInt64(at + 8),
                     bytes::LoadDouble(at + 16), bytes::LoadUint32(at + 24),
                     at + kClientEntryBytes};
}

}  // namespace

void PrivacyMeter::PublishObsGauges() const {
  if (!obs::Enabled()) return;
  obs::Registry& registry = obs::Registry::Default();
  static obs::Gauge* bits = registry.GetGauge(
      "bitpush_meter_bits_spent", "Total private bits disclosed.",
      obs::Determinism::kStable);
  static obs::Gauge* epsilon = registry.GetGauge(
      "bitpush_meter_epsilon_spent",
      "Cumulative randomized-response epsilon granted (basic composition).",
      obs::Determinism::kStable);
  static obs::Gauge* denied = registry.GetGauge(
      "bitpush_meter_denied_charges",
      "Charges denied by a cap or an invalid epsilon.",
      obs::Determinism::kStable);
  bits->Set(static_cast<double>(total_bits_));
  epsilon->Set(total_epsilon_);
  denied->Set(static_cast<double>(denied_charges_));
}

void PrivacyMeter::NoteChargeOutcome(int64_t value_id, bool granted) {
  uint8_t& mask = announced_[value_id];
  const uint8_t bit = granted ? 1 : 2;
  if ((mask & bit) != 0) return;
  mask |= bit;
  // Deliberately no ledger totals in the detail: a meter restored from a
  // snapshot re-derives its epsilon total in another order, so totals here
  // would not be recovery-invariant. The (value, outcome) transition is.
  obs::EventArgs args;
  args.detail = "value=" + std::to_string(value_id) +
                (granted ? " first grant" : " first denial");
  obs::EmitEvent(granted ? obs::EventType::kMeterCharge
                         : obs::EventType::kMeterDenial,
                 obs::Determinism::kStable, std::move(args));
}

PrivacyMeter::PrivacyMeter(MeterPolicy policy) : policy_(policy) {
  BITPUSH_CHECK_GE(policy_.max_bits_per_value, 1);
  BITPUSH_CHECK_GE(policy_.max_bits_per_client, 1);
  BITPUSH_CHECK_GT(policy_.max_epsilon_per_client, 0.0);
}

void PrivacyMeter::BindLattice(int64_t first, int64_t stride, size_t count) {
  BITPUSH_CHECK(rows_.empty()) << "only a meter without rows is bound";
  BITPUSH_CHECK_GT(stride, 0);
  if (count == 0) return;
  int64_t span = 0;
  int64_t last = 0;
  BITPUSH_CHECK(
      !__builtin_mul_overflow(static_cast<int64_t>(count - 1), stride,
                              &span) &&
      !__builtin_add_overflow(first, span, &last))
      << "lattice ids overflow";
  first_ = first;
  stride_ = static_cast<uint64_t>(stride);
  stride_shift_ =
      std::has_single_bit(stride_) ? std::countr_zero(stride_) : -1;
  lattice_rows_ = count;
  rows_.resize(count);
  for (std::vector<uint32_t>& column : columns_) column.resize(count, 0);
}

size_t PrivacyMeter::DirectoryRow(int64_t client_id) const {
  const auto it = directory_.find(client_id);
  return it == directory_.end() ? kNoRow : it->second;
}

size_t PrivacyMeter::Register(int64_t client_id) {
  const size_t row = Row(client_id);
  if (row != kNoRow) return row;
  const size_t added = rows_.size();
  directory_.emplace(client_id, added);
  rows_.emplace_back();
  for (std::vector<uint32_t>& column : columns_) column.push_back(0);
  return added;
}

size_t PrivacyMeter::ValueIndex(int64_t value_id) const {
  const auto it = std::lower_bound(
      value_order_.begin(), value_order_.end(), value_id,
      [this](size_t v, int64_t id) { return value_ids_[v] < id; });
  return it != value_order_.end() && value_ids_[*it] == value_id ? *it
                                                                 : kNoRow;
}

size_t PrivacyMeter::RegisterValue(int64_t value_id) {
  const size_t index = ValueIndex(value_id);
  if (index != kNoRow) return index;
  const size_t added = value_ids_.size();
  value_ids_.push_back(value_id);
  if (added > 0) columns_.emplace_back(rows_.size(), 0);
  value_order_.insert(
      std::upper_bound(value_order_.begin(), value_order_.end(), value_id,
                       [this](int64_t id, size_t v) {
                         return id < value_ids_[v];
                       }),
      added);
  return added;
}

PrivacyMeter::ChargeLookup PrivacyMeter::Lookup(size_t row,
                                                 size_t value) const {
  ChargeLookup lookup;
  if (row == kNoRow) return lookup;
  const LedgerRow& entry = rows_[row];
  lookup.row = row;
  lookup.client_bits = entry.bits;
  lookup.client_epsilon = entry.epsilon;
  if (value != kNoRow) lookup.value_bits = CountOf(row, value);
  return lookup;
}

PrivacyMeter::ChargeLookup PrivacyMeter::LookupId(int64_t client_id,
                                                   int64_t value_id) const {
  return Lookup(Row(client_id), ValueIndex(value_id));
}

bool PrivacyMeter::Allows(const ChargeLookup& lookup, double epsilon) const {
  // An invalid epsilon is denied rather than CHECKed: the value can
  // originate from an untrusted request, and accepting a non-finite
  // epsilon (infinity passes a >= 0 check) would permanently corrupt the
  // per-client composition total. The denial is recorded in the round's
  // outcome like a cap denial, so a recovered ledger counts it exactly
  // once and stays byte-identical to an uninterrupted run. A count the
  // row cannot hold past UINT32_MAX is denied like a cap.
  if (!std::isfinite(epsilon) || epsilon < 0.0) return false;
  return lookup.value_bits < std::min(policy_.max_bits_per_value, kMaxCount) &&
         lookup.client_bits <
             std::min(policy_.max_bits_per_client, kMaxCount) &&
         lookup.client_epsilon + epsilon <= policy_.max_epsilon_per_client;
}

void PrivacyMeter::AddToTotals(bool granted, double epsilon,
                               const ChargeLookup& lookup) {
  if (!granted) {
    ++denied_charges_;
    return;
  }
  ++total_bits_;
  total_epsilon_ += epsilon;
  if (!Listed(lookup.client_bits, lookup.client_epsilon)) ++listed_clients_;
  if (lookup.value_bits == 0) ++listed_values_;
}

bool PrivacyMeter::TryChargeBit(int64_t value_id, double epsilon,
                                const ChargeLookup& lookup) {
  const bool granted = Allows(lookup, epsilon);
  AddToTotals(granted, epsilon, lookup);
  if (obs::Enabled()) NoteChargeOutcome(value_id, granted);
  return granted;
}

void PrivacyMeter::ApplyCharge(size_t row, size_t value, double epsilon) {
  LedgerRow& entry = rows_[row];
  ++entry.bits;
  entry.epsilon += epsilon;
  if (value == 0) {
    ++entry.first_value_bits;
  } else {
    ++columns_[value - 1][row];
  }
}

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon) {
  const ChargeLookup lookup = LookupId(client_id, value_id);
  const bool granted = TryChargeBit(value_id, epsilon, lookup);
  // A client gets its row, and a value its count, with the first grant.
  if (granted) {
    ApplyCharge(Register(client_id), RegisterValue(value_id), epsilon);
  }
  PublishObsGauges();
  return granted;
}

bool PrivacyMeter::ReplayCharge(int64_t client_id, int64_t value_id,
                                double epsilon, bool granted,
                                ReplayLatch* latch) {
  if (latch->value == kNoRow || latch->value_id != value_id) {
    latch->value_id = value_id;
    latch->value = ValueIndex(value_id);
    latch->outcomes = 0;
  }
  const size_t row = Row(client_id);
  const ChargeLookup lookup = Lookup(row, latch->value);
  if (Allows(lookup, epsilon) != granted) return false;
  // A grant needs the client's row and the value's count: a replay runs
  // on a meter whose registration is closed, so a grant of another id is
  // corrupt.
  if (granted && (row == kNoRow || latch->value == kNoRow)) return false;
  AddToTotals(granted, epsilon, lookup);
  if (granted) ApplyCharge(row, latch->value, epsilon);
  // NoteChargeOutcome announces each (value, outcome) once, so skipping
  // a repeat of the pair it just saw changes nothing.
  const uint8_t outcome = granted ? 1 : 2;
  if ((latch->outcomes & outcome) == 0) {
    latch->outcomes |= outcome;
    if (obs::Enabled()) NoteChargeOutcome(value_id, granted);
  }
  return true;
}

int64_t PrivacyMeter::ClientBits(int64_t client_id) const {
  return Lookup(Row(client_id), kNoRow).client_bits;
}

double PrivacyMeter::ClientEpsilon(int64_t client_id) const {
  return Lookup(Row(client_id), kNoRow).client_epsilon;
}

// bitpush-lint: allow(unreached-function): seam into the live ledger: PrivacyMeterTest.PerValueCapAboveOne and RoundWorkersTest.RepeatedSlotsAreDeniedAtOneBitPerValue read one (client, value) counter through it
int64_t PrivacyMeter::ValueBits(int64_t client_id, int64_t value_id) const {
  return LookupId(client_id, value_id).value_bits;
}

void PrivacyMeter::EncodeTo(std::vector<uint8_t>* out) const {
  BITPUSH_CHECK(out != nullptr);
  // Canonical form: sorted ids, zero entries omitted, so "same ledger"
  // means "same bytes" however the state was reached (live run, journal
  // replay, or snapshot restore) and whatever the row layout. The
  // lattice rows are in id order: one pass writes them into a buffer
  // sized once from the listed-entry counts. The directory's rows, which
  // bound meters of the drivers do not have, are put in id order first
  // and merged in.
  std::vector<std::pair<int64_t, size_t>> directory(directory_.begin(),
                                                    directory_.end());
  std::sort(directory.begin(), directory.end());
  const size_t start = out->size();
  out->resize(start + kHeaderBytes + listed_clients_ * kClientEntryBytes +
              listed_values_ * kValueEntryBytes);
  uint8_t* at = out->data() + start;
  at = bytes::StoreInt64(policy_.max_bits_per_value, at);
  at = bytes::StoreInt64(policy_.max_bits_per_client, at);
  at = bytes::StoreDouble(policy_.max_epsilon_per_client, at);
  at = bytes::StoreInt64(total_bits_, at);
  at = bytes::StoreInt64(denied_charges_, at);
  at = bytes::StoreUint32(static_cast<uint32_t>(listed_clients_), at);
  const auto put = [&](int64_t client_id, size_t row) {
    const LedgerRow& entry = rows_[row];
    if (!Listed(entry.bits, entry.epsilon)) return;
    at = bytes::StoreInt64(client_id, at);
    at = bytes::StoreInt64(entry.bits, at);
    at = bytes::StoreDouble(entry.epsilon, at);
    uint8_t* const value_count_at = at;
    at += 4;
    uint32_t value_count = 0;
    for (const size_t value : value_order_) {
      const uint32_t count = CountOf(row, value);
      if (count == 0) continue;
      at = bytes::StoreInt64(value_ids_[value], at);
      at = bytes::StoreInt64(count, at);
      ++value_count;
    }
    bytes::StoreUint32(value_count, value_count_at);
  };
  auto next = directory.begin();
  for (size_t k = 0; k < lattice_rows_; ++k) {
    const int64_t client_id =
        static_cast<int64_t>(static_cast<uint64_t>(first_) + k * stride_);
    for (; next != directory.end() && next->first < client_id; ++next) {
      put(next->first, next->second);
    }
    put(client_id, k);
  }
  for (; next != directory.end(); ++next) put(next->first, next->second);
  BITPUSH_CHECK(at == out->data() + out->size())
      << "ledger encoding missized";
}

bool PrivacyMeter::DecodeFrom(std::span<const uint8_t> buffer,
                              size_t* offset, PrivacyMeter* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  // Two passes over the buffer the ledger lies in: the first checks every
  // entry, each entry's bounds once, and writes nothing; the second fills
  // the rows.
  if (*offset > buffer.size() || buffer.size() - *offset < kHeaderBytes) {
    return false;
  }
  const uint8_t* at = buffer.data() + *offset;
  const uint8_t* const end = buffer.data() + buffer.size();
  MeterPolicy policy;
  policy.max_bits_per_value = bytes::LoadInt64(at);
  policy.max_bits_per_client = bytes::LoadInt64(at + 8);
  policy.max_epsilon_per_client = bytes::LoadDouble(at + 16);
  const int64_t total_bits = bytes::LoadInt64(at + 24);
  const int64_t denied_charges = bytes::LoadInt64(at + 32);
  const uint32_t client_count = bytes::LoadUint32(at + 40);
  at += kHeaderBytes;
  if (policy.max_bits_per_value < 1 || policy.max_bits_per_client < 1 ||
      std::isnan(policy.max_epsilon_per_client) ||
      policy.max_epsilon_per_client <= 0.0 || total_bits < 0 ||
      denied_charges < 0) {
    return false;
  }
  // A count the remaining bytes cannot hold is corrupt.
  if (static_cast<size_t>(end - at) / kClientEntryBytes < client_count) {
    return false;
  }
  const uint8_t* const entries_begin = at;
  int64_t ledger_bit_sum = 0;
  double ledger_epsilon_sum = 0.0;
  size_t listed_clients = 0;
  size_t listed_values = 0;
  // Whether the ids are strictly ascending, as EncodeTo writes them: then
  // no id repeats.
  bool ascending = true;
  int64_t previous_id = 0;
  // One client's (value id, bits) entries, as listed.
  std::vector<std::pair<int64_t, int64_t>> entries;
  // The value ids with a nonzero count, one per run of equal ids.
  std::vector<int64_t> value_ids;
  for (uint32_t c = 0; c < client_count; ++c) {
    if (static_cast<size_t>(end - at) < kClientEntryBytes) return false;
    const ClientEntry client = ReadClientEntry(at);
    at = client.values;
    if (c > 0 && client.client_id <= previous_id) ascending = false;
    previous_id = client.client_id;
    if ((out->registration_closed_ &&
         out->Row(client.client_id) == kNoRow) ||
        client.bits < 0 || client.bits > kMaxCount ||
        !std::isfinite(client.epsilon) || client.epsilon < 0.0 ||
        static_cast<size_t>(end - at) / kValueEntryBytes <
            client.value_count) {
      return false;
    }
    entries.clear();
    int64_t value_bit_sum = 0;
    for (uint32_t v = 0; v < client.value_count; ++v) {
      const int64_t value_id = bytes::LoadInt64(at);
      const int64_t value_bits = bytes::LoadInt64(at + 8);
      at += kValueEntryBytes;
      if (value_bits < 0 || value_bits > kMaxCount ||
          __builtin_add_overflow(value_bit_sum, value_bits,
                                 &value_bit_sum)) {
        return false;
      }
      entries.emplace_back(value_id, value_bits);
    }
    if (entries.size() > 1) {
      std::sort(entries.begin(), entries.end());
      if (std::adjacent_find(entries.begin(), entries.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }) != entries.end()) {
        return false;  // duplicate value entry
      }
    }
    for (const auto& [value_id, value_bits] : entries) {
      if (value_bits == 0) continue;
      ++listed_values;
      if (value_ids.empty() || value_ids.back() != value_id) {
        value_ids.push_back(value_id);
      }
    }
    // Consistency: per-value bits must account for the client total.
    if (value_bit_sum != client.bits ||
        __builtin_add_overflow(ledger_bit_sum, client.bits,
                               &ledger_bit_sum)) {
      return false;
    }
    ledger_epsilon_sum += client.epsilon;
    if (Listed(client.bits, client.epsilon)) ++listed_clients;
  }
  if (ledger_bit_sum != total_bits) return false;
  std::sort(value_ids.begin(), value_ids.end());
  value_ids.erase(std::unique(value_ids.begin(), value_ids.end()),
                  value_ids.end());
  if (out->registration_closed_ &&
      std::any_of(value_ids.begin(), value_ids.end(), [out](int64_t id) {
        return out->ValueIndex(id) == kNoRow;
      })) {
    return false;
  }
  if (!ascending) {
    // Input EncodeTo never writes: the ids repeat if a sorted copy does.
    std::vector<int64_t> ids;
    ids.reserve(client_count);
    for (const uint8_t* next = entries_begin; next != at;) {
      const ClientEntry client = ReadClientEntry(next);
      ids.push_back(client.client_id);
      next = client.end();
    }
    std::sort(ids.begin(), ids.end());
    if (std::adjacent_find(ids.begin(), ids.end()) != ids.end()) {
      return false;  // duplicate client entry
    }
  }

  // Every check passed: fill the ledger of *out, which keeps its binding
  // and its journal. Its rows are zero already unless it lists a client.
  if (out->listed_clients_ > 0) {
    std::fill(out->rows_.begin(), out->rows_.end(), LedgerRow{});
    for (std::vector<uint32_t>& column : out->columns_) {
      std::fill(column.begin(), column.end(), 0);
    }
  }
  for (const int64_t value_id : value_ids) out->RegisterValue(value_id);
  for (const uint8_t* next = entries_begin; next != at;) {
    const ClientEntry client = ReadClientEntry(next);
    next = client.end();
    const size_t row = out->Register(client.client_id);
    LedgerRow& entry = out->rows_[row];
    entry.epsilon = client.epsilon;
    entry.bits = static_cast<uint32_t>(client.bits);
    for (uint32_t v = 0; v < client.value_count; ++v) {
      const uint8_t* const value_at = client.values + v * kValueEntryBytes;
      const auto count = static_cast<uint32_t>(bytes::LoadInt64(value_at + 8));
      if (count == 0) continue;
      const size_t value = out->ValueIndex(bytes::LoadInt64(value_at));
      if (value == 0) {
        entry.first_value_bits = count;
      } else {
        out->columns_[value - 1][row] = count;
      }
    }
  }
  out->policy_ = policy;
  out->listed_clients_ = listed_clients;
  out->listed_values_ = listed_values;
  out->total_bits_ = total_bits;
  // Recomputed in the canonical (sorted-client) encoding order; may differ
  // from a live run's charge-order sum by FP rounding, which is why the
  // deterministic-metrics contract is scoped to journal-only recovery
  // (replay re-charges in the original order).
  out->total_epsilon_ = ledger_epsilon_sum;
  out->denied_charges_ = denied_charges;
  // Values restored from a snapshot are marked fully announced, once each:
  // their first grant / first denial happened before the snapshot, and
  // re-announcing them would fabricate flight-recorder events the original
  // run never emitted.
  out->announced_.clear();
  for (const int64_t value_id : value_ids) out->announced_[value_id] = 3;
  out->PublishObsGauges();
  *offset = static_cast<size_t>(at - buffer.data());
  return true;
}

}  // namespace bitpush
