#include "core/privacy_meter.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

namespace {

// Rows a table gets on its first insert.
constexpr size_t kInitialRows = 16;
// Encoded sizes of the ledger header (policy, totals and client count), of
// one client entry without its values (id, bits, epsilon, value count) and
// of one value entry (id, bits). DecodeFrom bounds the counts it reads by
// the bytes that remain, and checks each entry's bounds once.
constexpr size_t kHeaderBytes = 8 + 8 + 8 + 8 + 8 + 4;
constexpr size_t kClientEntryBytes = 8 + 8 + 8 + 4;
constexpr size_t kValueEntryBytes = 8 + 8;

// MurmurHash3's 64-bit finalizer, so that sequential or strided ids spread
// over the table.
uint64_t Mix(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

uint64_t ClientHash(int64_t client_id) {
  return Mix(static_cast<uint64_t>(client_id));
}

uint64_t PairHash(int64_t client_id, int64_t value_id) {
  return Mix(ClientHash(client_id) + static_cast<uint64_t>(value_id));
}

// Linear probe from `hash` in a power-of-two table that has a free row:
// the index of the first row that is free or that `matches` accepts.
template <typename Row, typename Matches>
size_t Probe(const std::vector<Row>& rows, uint64_t hash,
             const Matches& matches) {
  const size_t mask = rows.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (rows[slot].used() && !matches(rows[slot])) slot = (slot + 1) & mask;
  return slot;
}

// Makes room for one more row: once `used + 1` rows would pass half load,
// doubles `rows` (or gives it its first rows) and re-inserts every used
// row.
template <typename Row, typename HashOf>
void MakeRoom(std::vector<Row>* rows, size_t used, const HashOf& hash_of) {
  if (2 * (used + 1) <= rows->size()) return;
  std::vector<Row> grown(rows->empty() ? kInitialRows : 2 * rows->size());
  const auto never = [](const Row&) { return false; };
  for (const Row& row : *rows) {
    if (row.used()) grown[Probe(grown, hash_of(row), never)] = row;
  }
  rows->swap(grown);
}

// Starts loading `*row`, which can straddle two cache lines; kWrite says
// whether it is about to be written.
template <int kWrite, typename Row>
void PrefetchRow(const Row* row) {
  __builtin_prefetch(row, kWrite);
  __builtin_prefetch(reinterpret_cast<const char*>(row + 1) - 1, kWrite);
}

// A client row's place in the canonical order: its id with the sign bit
// flipped, so that unsigned order is signed order, and its table slot.
struct SortKey {
  uint64_t key = 0;
  uint64_t slot = 0;
};

// Orders `keys` by key: an LSD radix sort, one counting pass per byte. A
// byte that every key shares is skipped, so ids that differ only in their
// low three bytes cost three passes.
void RadixSort(std::vector<SortKey>* keys) {
  const size_t n = keys->size();
  if (n < 2) return;
  std::array<std::array<size_t, 256>, 8> counts{};
  for (const SortKey& k : *keys) {
    for (size_t d = 0; d < 8; ++d) ++counts[d][(k.key >> (8 * d)) & 0xFF];
  }
  std::vector<SortKey> scratch(n);
  for (size_t d = 0; d < 8; ++d) {
    std::array<size_t, 256>& count = counts[d];
    if (count[((*keys)[0].key >> (8 * d)) & 0xFF] == n) continue;
    size_t next = 0;
    for (size_t& c : count) next += std::exchange(c, next);
    for (const SortKey& k : *keys) {
      scratch[count[(k.key >> (8 * d)) & 0xFF]++] = k;
    }
    keys->swap(scratch);
  }
}

// Rows of a table built for `count` rows at once: at most half full.
size_t TableRowsFor(size_t count) {
  size_t size = kInitialRows;
  while (size < 2 * count) size *= 2;
  return size;
}

// Fills `table` from `rows`, sized by TableRowsFor, and loads each row's
// home slot a few rows ahead of its insert. Returns false if two rows have
// the same key.
template <typename Row, typename HashOf, typename SameKey>
bool BuildTable(const std::vector<Row>& rows, const HashOf& hash_of,
                const SameKey& same_key, std::vector<Row>* table) {
  constexpr size_t kAhead = 8;
  const size_t size = TableRowsFor(rows.size());
  table->assign(size, Row{});
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i + kAhead < rows.size()) {
      __builtin_prefetch(
          &(*table)[static_cast<size_t>(hash_of(rows[i + kAhead])) &
                    (size - 1)]);
    }
    const Row& row = rows[i];
    Row& slot = (*table)[Probe(*table, hash_of(row),
                               [&](const Row& other) {
                                 return same_key(row, other);
                               })];
    if (slot.used()) return false;
    slot = row;
  }
  return true;
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
  if (!obs::Enabled()) return;
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

size_t PrivacyMeter::ClientSlot(int64_t client_id) const {
  return Probe(clients_, ClientHash(client_id),
               [client_id](const ClientRow& candidate) {
                 return candidate.client_id == client_id;
               });
}

const PrivacyMeter::ClientRow* PrivacyMeter::FindClient(
    int64_t client_id) const {
  if (clients_.empty()) return nullptr;
  const ClientRow& row = clients_[ClientSlot(client_id)];
  return row.used() ? &row : nullptr;
}

int64_t PrivacyMeter::ValueBitsOf(const ClientRow& row,
                                  int64_t value_id) const {
  if (row.value_bits == 0) return 0;
  if (row.value_id == value_id) return row.value_bits;
  if (values_.empty()) return 0;
  const ValueRow& extra =
      values_[Probe(values_, PairHash(row.client_id, value_id),
                    [&row, value_id](const ValueRow& candidate) {
                      return candidate.client_id == row.client_id &&
                             candidate.value_id == value_id;
                    })];
  return extra.used() ? extra.bits : 0;
}

PrivacyMeter::ClientRow& PrivacyMeter::InsertClient(int64_t client_id) {
  MakeRoom(&clients_, client_count_, [](const ClientRow& row) {
    return ClientHash(row.client_id);
  });
  ++client_count_;
  ClientRow& row = clients_[ClientSlot(client_id)];
  row.client_id = client_id;
  row.bits = 0;
  return row;
}

void PrivacyMeter::AddExtraValueBits(int64_t client_id, int64_t value_id,
                                     int64_t bits) {
  MakeRoom(&values_, value_count_, [](const ValueRow& row) {
    return PairHash(row.client_id, row.value_id);
  });
  ValueRow& row =
      values_[Probe(values_, PairHash(client_id, value_id),
                    [client_id, value_id](const ValueRow& candidate) {
                      return candidate.client_id == client_id &&
                             candidate.value_id == value_id;
                    })];
  if (!row.used()) {
    ++value_count_;
    row.client_id = client_id;
    row.value_id = value_id;
    row.bits = 0;
  }
  row.bits += bits;
}

void PrivacyMeter::Prefetch(int64_t client_id) const {
  if (clients_.empty()) return;
  PrefetchRow</*kWrite=*/1>(
      &clients_[static_cast<size_t>(ClientHash(client_id)) &
                (clients_.size() - 1)]);
}

PrivacyMeter::ChargeLookup PrivacyMeter::Lookup(int64_t client_id,
                                                 int64_t value_id) const {
  ChargeLookup lookup;
  if (clients_.empty()) return lookup;
  const size_t slot = ClientSlot(client_id);
  const ClientRow& row = clients_[slot];
  if (!row.used()) return lookup;
  lookup.row = slot;
  lookup.client_bits = row.bits;
  lookup.client_epsilon = row.epsilon;
  lookup.value_bits = ValueBitsOf(row, value_id);
  lookup.value_in_row = row.value_bits == 0 || row.value_id == value_id;
  return lookup;
}

bool PrivacyMeter::Allows(const ChargeLookup& lookup, double epsilon) const {
  // An invalid epsilon is denied rather than CHECKed: the value can
  // originate from an untrusted request, and accepting a non-finite
  // epsilon (infinity passes a >= 0 check) would permanently corrupt the
  // per-client composition total. The denial still flows through the
  // journal hook like a cap denial, so a recovered ledger counts it
  // exactly once and stays byte-identical to an uninterrupted run.
  if (!std::isfinite(epsilon) || epsilon < 0.0) return false;
  return lookup.value_bits < policy_.max_bits_per_value &&
         lookup.client_bits < policy_.max_bits_per_client &&
         lookup.client_epsilon + epsilon <= policy_.max_epsilon_per_client;
}

void PrivacyMeter::AddToTotals(bool granted, double epsilon) {
  if (!granted) {
    ++denied_charges_;
    return;
  }
  ++total_bits_;
  total_epsilon_ += epsilon;
}

void PrivacyMeter::AddToRow(ClientRow* row, int64_t value_id,
                            double epsilon) {
  if (row->value_bits == 0) {
    row->value_id = value_id;
    row->value_bits = 1;
  } else if (row->value_id == value_id) {
    ++row->value_bits;
  } else {
    AddExtraValueBits(row->client_id, value_id, 1);
  }
  ++row->bits;
  row->epsilon += epsilon;
}

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon, const ChargeLookup& lookup) {
  const bool granted = Allows(lookup, epsilon);
  if (journal_ != nullptr) {
    // Write-ahead: persist the decision before applying it, so a crash
    // between the two is recovered by re-applying the record (exactly once).
    journal_->OnCharge(client_id, value_id, epsilon, granted);
  }
  AddToTotals(granted, epsilon);
  NoteChargeOutcome(value_id, granted);
  return granted;
}

void PrivacyMeter::ApplyCharge(int64_t client_id, int64_t value_id,
                               double epsilon, const ChargeLookup& lookup) {
  if (lookup.row != kNoRow && lookup.value_in_row) {
    AddToRow(&clients_[lookup.row], value_id, epsilon);
    return;
  }
  // A client gets its row with its first granted bit; a denial adds none.
  // Inserts may move every row, so find the row again.
  ClientRow* row = nullptr;
  if (!clients_.empty()) {
    ClientRow& found = clients_[ClientSlot(client_id)];
    if (found.used()) row = &found;
  }
  if (row == nullptr) row = &InsertClient(client_id);
  AddToRow(row, value_id, epsilon);
}

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon) {
  const ChargeLookup lookup = Lookup(client_id, value_id);
  const bool granted = TryChargeBit(client_id, value_id, epsilon, lookup);
  if (granted) ApplyCharge(client_id, value_id, epsilon, lookup);
  PublishObsGauges();
  return granted;
}

bool PrivacyMeter::ReplayCharge(int64_t client_id, int64_t value_id,
                                double epsilon, bool granted,
                                ReplayLatch* latch) {
  const ChargeLookup lookup = Lookup(client_id, value_id);
  if (Allows(lookup, epsilon) != granted) return false;
  AddToTotals(granted, epsilon);
  if (granted) ApplyCharge(client_id, value_id, epsilon, lookup);
  // NoteChargeOutcome announces each (value, outcome) once, so skipping
  // a repeat of the pair it just saw changes nothing.
  const uint8_t outcome = granted ? 1 : 2;
  if (latch->value_id != value_id) {
    latch->value_id = value_id;
    latch->outcomes = 0;
  }
  if ((latch->outcomes & outcome) == 0) {
    latch->outcomes |= outcome;
    NoteChargeOutcome(value_id, granted);
  }
  return true;
}

int64_t PrivacyMeter::ClientBits(int64_t client_id) const {
  const ClientRow* row = FindClient(client_id);
  return row == nullptr ? 0 : row->bits;
}

double PrivacyMeter::ClientEpsilon(int64_t client_id) const {
  const ClientRow* row = FindClient(client_id);
  return row == nullptr ? 0.0 : row->epsilon;
}

// bitpush-lint: allow(unreached-function): seam into the live ledger: PrivacyMeterTest.PerValueCapAboveOne and RoundWorkersTest.RepeatedSlotsAreDeniedAtOneBitPerValue read one (client, value) counter through it
int64_t PrivacyMeter::ValueBits(int64_t client_id, int64_t value_id) const {
  const ClientRow* row = FindClient(client_id);
  return row == nullptr ? 0 : ValueBitsOf(*row, value_id);
}

void PrivacyMeter::EncodeTo(std::vector<uint8_t>* out) const {
  BITPUSH_CHECK(out != nullptr);
  // Canonical form: sorted ids, zero entries omitted, so "same ledger"
  // means "same bytes" however the state was reached (live run, journal
  // replay, or snapshot restore) and whatever the table layout. One
  // sequential pass takes a 16-byte key per nonzero row and radix-sorts
  // the keys; the rows are then read in id order, each loaded a few rows
  // ahead, and written into a buffer sized once.
  std::vector<SortKey> keys;
  keys.reserve(client_count_);
  size_t inline_values = 0;
  for (size_t slot = 0; slot < clients_.size(); ++slot) {
    const ClientRow& row = clients_[slot];
    if (row.used() && (row.bits > 0 || row.epsilon > 0.0)) {
      keys.push_back(SortKey{
          static_cast<uint64_t>(row.client_id) ^ (uint64_t{1} << 63), slot});
      if (row.value_bits > 0) ++inline_values;
    }
  }
  RadixSort(&keys);
  // Further values are rare (one per metric a client reports beyond its
  // first): a comparison sort suffices.
  std::vector<ValueRow> extras;
  extras.reserve(value_count_);
  for (const ValueRow& row : values_) {
    if (row.used()) extras.push_back(row);
  }
  std::sort(extras.begin(), extras.end(),
            [](const ValueRow& a, const ValueRow& b) {
              return a.client_id != b.client_id ? a.client_id < b.client_id
                                                : a.value_id < b.value_id;
            });

  const size_t start = out->size();
  out->resize(start + kHeaderBytes + keys.size() * kClientEntryBytes +
              (inline_values + extras.size()) * kValueEntryBytes);
  uint8_t* at = out->data() + start;
  at = bytes::StoreInt64(policy_.max_bits_per_value, at);
  at = bytes::StoreInt64(policy_.max_bits_per_client, at);
  at = bytes::StoreDouble(policy_.max_epsilon_per_client, at);
  at = bytes::StoreInt64(total_bits_, at);
  at = bytes::StoreInt64(denied_charges_, at);
  at = bytes::StoreUint32(static_cast<uint32_t>(keys.size()), at);
  constexpr size_t kAhead = 8;
  auto extra = extras.begin();
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i + kAhead < keys.size()) {
      PrefetchRow</*kWrite=*/0>(&clients_[keys[i + kAhead].slot]);
    }
    const ClientRow& row = clients_[keys[i].slot];
    at = bytes::StoreInt64(row.client_id, at);
    at = bytes::StoreInt64(row.bits, at);
    at = bytes::StoreDouble(row.epsilon, at);
    // Both lists are sorted by client, so this client's further values are
    // the run that starts at `extra`. The inline value merges into it.
    const auto first = extra;
    while (extra != extras.end() && extra->client_id == row.client_id) {
      ++extra;
    }
    bool inline_pending = row.value_bits > 0;
    at = bytes::StoreUint32(
        static_cast<uint32_t>((inline_pending ? 1 : 0) + (extra - first)),
        at);
    const auto put_inline = [&] {
      at = bytes::StoreInt64(row.value_id, at);
      at = bytes::StoreInt64(row.value_bits, at);
      inline_pending = false;
    };
    for (auto it = first; it != extra; ++it) {
      if (inline_pending && row.value_id < it->value_id) put_inline();
      at = bytes::StoreInt64(it->value_id, at);
      at = bytes::StoreInt64(it->bits, at);
    }
    if (inline_pending) put_inline();
  }
  BITPUSH_CHECK(at == out->data() + out->size())
      << "ledger encoding missized";
}

bool PrivacyMeter::DecodeFrom(std::span<const uint8_t> buffer,
                              size_t* offset, PrivacyMeter* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  // One pass over the buffer the ledger lies in. Each entry's bounds are
  // checked once, and its fields read with inline loads.
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
  // A count the remaining bytes cannot hold is corrupt. One they can hold
  // is bounded by the input, so the client table is sized from it, once:
  // every listed client gets a row.
  if (static_cast<size_t>(end - at) / kClientEntryBytes < client_count) {
    return false;
  }
  PrivacyMeter decoded(policy);
  decoded.clients_.assign(TableRowsFor(client_count), ClientRow{});
  const size_t mask = decoded.clients_.size() - 1;
  // Inserts a decoded row at the end of its probe run; false if its
  // client already has one.
  const auto insert = [&decoded](const ClientRow& row, uint64_t hash) {
    ClientRow& slot = decoded.clients_[Probe(
        decoded.clients_, hash, [&row](const ClientRow& other) {
          return other.client_id == row.client_id;
        })];
    if (slot.used()) return false;
    slot = row;
    return true;
  };
  // Rows wait kAhead entries between decode and insert, so that the
  // prefetch of their home slot has landed by then.
  constexpr uint32_t kAhead = 8;
  std::array<std::pair<ClientRow, uint64_t>, kAhead> pending;
  int64_t ledger_bit_sum = 0;
  double ledger_epsilon_sum = 0.0;
  // The further values of clients that list more than one, for the value
  // table built at the end.
  std::vector<ValueRow> extras;
  // One such client's (value id, bits) entries, as listed.
  std::vector<std::pair<int64_t, int64_t>> entries;
  // The value ids with a nonzero count, one per run of equal ids.
  std::vector<int64_t> value_ids;
  const auto note_value = [&value_ids](int64_t value_id) {
    if (value_ids.empty() || value_ids.back() != value_id) {
      value_ids.push_back(value_id);
    }
  };
  for (uint32_t c = 0; c < client_count; ++c) {
    if (static_cast<size_t>(end - at) < kClientEntryBytes) return false;
    ClientRow row;
    row.client_id = bytes::LoadInt64(at);
    row.bits = bytes::LoadInt64(at + 8);
    row.epsilon = bytes::LoadDouble(at + 16);
    const uint32_t value_count = bytes::LoadUint32(at + 24);
    at += kClientEntryBytes;
    if (row.bits < 0 || !std::isfinite(row.epsilon) || row.epsilon < 0.0 ||
        static_cast<size_t>(end - at) / kValueEntryBytes < value_count) {
      return false;
    }
    int64_t value_bit_sum = 0;
    if (value_count == 1) {
      // The common case, one value: nothing to sort or deduplicate.
      const int64_t value_id = bytes::LoadInt64(at);
      value_bit_sum = bytes::LoadInt64(at + 8);
      at += kValueEntryBytes;
      if (value_bit_sum < 0) return false;
      if (value_bit_sum > 0) {
        row.value_id = value_id;
        row.value_bits = value_bit_sum;
        note_value(value_id);
      }
    } else if (value_count > 1) {
      entries.clear();
      for (uint32_t v = 0; v < value_count; ++v) {
        const int64_t value_id = bytes::LoadInt64(at);
        const int64_t value_bits = bytes::LoadInt64(at + 8);
        at += kValueEntryBytes;
        if (value_bits < 0 ||
            __builtin_add_overflow(value_bit_sum, value_bits,
                                   &value_bit_sum)) {
          return false;
        }
        entries.emplace_back(value_id, value_bits);
      }
      std::sort(entries.begin(), entries.end());
      if (std::adjacent_find(entries.begin(), entries.end(),
                             [](const auto& a, const auto& b) {
                               return a.first == b.first;
                             }) != entries.end()) {
        return false;  // duplicate value entry
      }
      for (const auto& [value_id, value_bits] : entries) {
        if (value_bits == 0) continue;
        if (row.value_bits == 0) {
          row.value_id = value_id;
          row.value_bits = value_bits;
        } else {
          extras.push_back(ValueRow{row.client_id, value_id, value_bits});
        }
        note_value(value_id);
      }
    }
    // Consistency: per-value bits must account for the client total.
    if (value_bit_sum != row.bits ||
        __builtin_add_overflow(ledger_bit_sum, row.bits, &ledger_bit_sum)) {
      return false;
    }
    ledger_epsilon_sum += row.epsilon;
    const uint64_t hash = ClientHash(row.client_id);
    PrefetchRow</*kWrite=*/1>(&decoded.clients_[static_cast<size_t>(hash) &
                                                mask]);
    auto& waiting = pending[c % kAhead];
    if (c >= kAhead && !insert(waiting.first, waiting.second)) {
      return false;  // duplicate client entry
    }
    waiting = {row, hash};
  }
  for (uint32_t c = client_count > kAhead ? client_count - kAhead : 0;
       c < client_count; ++c) {
    const auto& waiting = pending[c % kAhead];
    if (!insert(waiting.first, waiting.second)) return false;
  }
  if (ledger_bit_sum != total_bits) return false;
  // Values restored from a snapshot are marked fully announced, once each:
  // their first grant / first denial happened before the snapshot, and
  // re-announcing them would fabricate flight-recorder events the original
  // run never emitted.
  std::sort(value_ids.begin(), value_ids.end());
  value_ids.erase(std::unique(value_ids.begin(), value_ids.end()),
                  value_ids.end());
  for (const int64_t value_id : value_ids) decoded.announced_[value_id] = 3;
  // Distinct by now: each client's value ids were checked above.
  BuildTable(
      extras,
      [](const ValueRow& row) { return PairHash(row.client_id, row.value_id); },
      [](const ValueRow& a, const ValueRow& b) {
        return a.client_id == b.client_id && a.value_id == b.value_id;
      },
      &decoded.values_);
  decoded.client_count_ = client_count;
  decoded.value_count_ = extras.size();
  decoded.total_bits_ = total_bits;
  // Recomputed in the canonical (sorted-client) encoding order; may differ
  // from a live run's charge-order sum by FP rounding, which is why the
  // deterministic-metrics contract is scoped to journal-only recovery
  // (replay re-charges in the original order).
  decoded.total_epsilon_ = ledger_epsilon_sum;
  decoded.denied_charges_ = denied_charges;
  decoded.journal_ = out->journal_;
  *out = std::move(decoded);
  out->PublishObsGauges();
  *offset = static_cast<size_t>(at - buffer.data());
  return true;
}

}  // namespace bitpush
