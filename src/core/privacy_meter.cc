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
// the bytes that remain.
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

// Fills `table` from `rows`, sized so that it is at most half full, and
// loads each row's home slot a few rows ahead of its insert. Returns false
// if two rows have the same key.
template <typename Row, typename HashOf, typename SameKey>
bool BuildTable(const std::vector<Row>& rows, const HashOf& hash_of,
                const SameKey& same_key, std::vector<Row>* table) {
  constexpr size_t kAhead = 8;
  size_t size = kInitialRows;
  while (size < 2 * rows.size()) size *= 2;
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

void PrivacyMeter::RefreshObsGauges() const {
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

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon) {
  // An invalid epsilon is denied rather than CHECKed: the value can
  // originate from an untrusted request, and accepting a non-finite
  // epsilon (infinity passes a >= 0 check) would permanently corrupt the
  // per-client composition total. The denial still flows through the
  // journal hook below like a cap denial, so a recovered ledger counts it
  // exactly once and stays byte-identical to an uninterrupted run.
  const bool valid_epsilon = std::isfinite(epsilon) && epsilon >= 0.0;
  ClientRow* found = nullptr;
  bool granted = false;
  if (valid_epsilon) {
    if (!clients_.empty()) {
      ClientRow& row = clients_[ClientSlot(client_id)];
      if (row.used()) found = &row;
    }
    const int64_t client_bits = found != nullptr ? found->bits : 0;
    const double client_epsilon = found != nullptr ? found->epsilon : 0.0;
    const int64_t value_bits =
        found != nullptr ? ValueBitsOf(*found, value_id) : 0;
    granted = value_bits < policy_.max_bits_per_value &&
              client_bits < policy_.max_bits_per_client &&
              client_epsilon + epsilon <= policy_.max_epsilon_per_client;
  }
  if (journal_ != nullptr) {
    // Write-ahead: persist the decision before applying it, so a crash
    // between the two is recovered by re-applying the record (exactly once).
    journal_->OnCharge(client_id, value_id, epsilon, granted);
  }
  if (!granted) {
    ++denied_charges_;
    RefreshObsGauges();
    NoteChargeOutcome(value_id, false);
    return false;
  }
  // A client gets its row with its first granted bit; a denial adds none.
  ClientRow& row = found != nullptr ? *found : InsertClient(client_id);
  if (row.value_bits == 0) {
    row.value_id = value_id;
    row.value_bits = 1;
  } else if (row.value_id == value_id) {
    ++row.value_bits;
  } else {
    AddExtraValueBits(client_id, value_id, 1);
  }
  ++row.bits;
  row.epsilon += epsilon;
  ++total_bits_;
  total_epsilon_ += epsilon;
  RefreshObsGauges();
  NoteChargeOutcome(value_id, true);
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

bool PrivacyMeter::DecodeFrom(const std::vector<uint8_t>& buffer,
                              size_t* offset, PrivacyMeter* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  MeterPolicy policy;
  int64_t total_bits = 0;
  int64_t denied_charges = 0;
  uint32_t client_count = 0;
  if (!bytes::GetInt64(buffer, &cursor, &policy.max_bits_per_value) ||
      !bytes::GetInt64(buffer, &cursor, &policy.max_bits_per_client) ||
      !bytes::GetDouble(buffer, &cursor, &policy.max_epsilon_per_client) ||
      !bytes::GetInt64(buffer, &cursor, &total_bits) ||
      !bytes::GetInt64(buffer, &cursor, &denied_charges) ||
      !bytes::GetUint32(buffer, &cursor, &client_count)) {
    return false;
  }
  if (policy.max_bits_per_value < 1 || policy.max_bits_per_client < 1 ||
      std::isnan(policy.max_epsilon_per_client) ||
      policy.max_epsilon_per_client <= 0.0 || total_bits < 0 ||
      denied_charges < 0) {
    return false;
  }
  // A count the remaining bytes cannot hold is corrupt; nothing is sized
  // from it either way.
  if ((buffer.size() - cursor) / kClientEntryBytes < client_count) {
    return false;
  }
  PrivacyMeter decoded(policy);
  int64_t ledger_bit_sum = 0;
  double ledger_epsilon_sum = 0.0;
  // The decoded rows. The tables are built from them at the end, sized by
  // the rows read, never by a count on disk.
  std::vector<ClientRow> rows;
  std::vector<ValueRow> extras;
  // One client's (value id, bits) entries, as listed.
  std::vector<std::pair<int64_t, int64_t>> entries;
  // The value ids with a nonzero count, one per run of equal ids.
  std::vector<int64_t> value_ids;
  for (uint32_t c = 0; c < client_count; ++c) {
    int64_t client_id = 0;
    int64_t bits = 0;
    double epsilon = 0.0;
    uint32_t value_count = 0;
    if (!bytes::GetInt64(buffer, &cursor, &client_id) ||
        !bytes::GetInt64(buffer, &cursor, &bits) ||
        !bytes::GetDouble(buffer, &cursor, &epsilon) ||
        !bytes::GetUint32(buffer, &cursor, &value_count)) {
      return false;
    }
    if (bits < 0 || !std::isfinite(epsilon) || epsilon < 0.0 ||
        (buffer.size() - cursor) / kValueEntryBytes < value_count) {
      return false;
    }
    entries.clear();
    int64_t value_bit_sum = 0;
    for (uint32_t v = 0; v < value_count; ++v) {
      int64_t value_id = 0;
      int64_t value_bits = 0;
      if (!bytes::GetInt64(buffer, &cursor, &value_id) ||
          !bytes::GetInt64(buffer, &cursor, &value_bits)) {
        return false;
      }
      if (value_bits < 0 ||
          __builtin_add_overflow(value_bit_sum, value_bits, &value_bit_sum)) {
        return false;
      }
      entries.emplace_back(value_id, value_bits);
    }
    // Consistency: per-value bits must account for the client total.
    if (value_bit_sum != bits ||
        __builtin_add_overflow(ledger_bit_sum, bits, &ledger_bit_sum)) {
      return false;
    }
    std::sort(entries.begin(), entries.end());
    if (std::adjacent_find(entries.begin(), entries.end(),
                           [](const auto& a, const auto& b) {
                             return a.first == b.first;
                           }) != entries.end()) {
      return false;  // duplicate value entry
    }
    ledger_epsilon_sum += epsilon;
    ClientRow& row = rows.emplace_back();
    row.client_id = client_id;
    row.bits = bits;
    row.epsilon = epsilon;
    for (const auto& [value_id, value_bits] : entries) {
      if (value_bits == 0) continue;
      if (row.value_bits == 0) {
        row.value_id = value_id;
        row.value_bits = value_bits;
      } else {
        extras.push_back(ValueRow{client_id, value_id, value_bits});
      }
      if (value_ids.empty() || value_ids.back() != value_id) {
        value_ids.push_back(value_id);
      }
    }
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
  const bool distinct_clients = BuildTable(
      rows, [](const ClientRow& row) { return ClientHash(row.client_id); },
      [](const ClientRow& a, const ClientRow& b) {
        return a.client_id == b.client_id;
      },
      &decoded.clients_);
  if (!distinct_clients) return false;  // duplicate client entry
  // Distinct by now: each client's value ids were checked above.
  BuildTable(
      extras,
      [](const ValueRow& row) { return PairHash(row.client_id, row.value_id); },
      [](const ValueRow& a, const ValueRow& b) {
        return a.client_id == b.client_id && a.value_id == b.value_id;
      },
      &decoded.values_);
  decoded.client_count_ = rows.size();
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
  out->RefreshObsGauges();
  *offset = cursor;
  return true;
}

}  // namespace bitpush
