#include "core/privacy_meter.h"

#include <algorithm>
#include <cmath>

#include "obs/events.h"
#include "obs/metrics.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

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

bool PrivacyMeter::TryChargeBit(int64_t client_id, int64_t value_id,
                                double epsilon) {
  // An invalid epsilon is denied rather than CHECKed: the value can
  // originate from an untrusted request, and accepting a non-finite
  // epsilon (infinity passes a >= 0 check) would permanently corrupt the
  // per-client composition total. The denial still flows through the
  // journal hook below like a cap denial, so a recovered ledger counts it
  // exactly once and stays byte-identical to an uninterrupted run.
  const bool valid_epsilon = std::isfinite(epsilon) && epsilon >= 0.0;
  ClientLedger* ledger = nullptr;
  bool granted = false;
  if (valid_epsilon) {
    ledger = &ledgers_[client_id];
    const int64_t value_bits = ledger->bits_per_value[value_id];
    granted = value_bits + 1 <= policy_.max_bits_per_value &&
              ledger->bits + 1 <= policy_.max_bits_per_client &&
              ledger->epsilon + epsilon <= policy_.max_epsilon_per_client;
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
  ++ledger->bits_per_value[value_id];
  ++ledger->bits;
  ledger->epsilon += epsilon;
  ++total_bits_;
  total_epsilon_ += epsilon;
  RefreshObsGauges();
  NoteChargeOutcome(value_id, true);
  return true;
}

int64_t PrivacyMeter::ClientBits(int64_t client_id) const {
  const auto it = ledgers_.find(client_id);
  return it == ledgers_.end() ? 0 : it->second.bits;
}

double PrivacyMeter::ClientEpsilon(int64_t client_id) const {
  const auto it = ledgers_.find(client_id);
  return it == ledgers_.end() ? 0.0 : it->second.epsilon;
}

int64_t PrivacyMeter::ValueBits(int64_t client_id, int64_t value_id) const {
  const auto it = ledgers_.find(client_id);
  if (it == ledgers_.end()) return 0;
  const auto vit = it->second.bits_per_value.find(value_id);
  return vit == it->second.bits_per_value.end() ? 0 : vit->second;
}

void PrivacyMeter::EncodeTo(std::vector<uint8_t>* out) const {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(policy_.max_bits_per_value, out);
  bytes::PutInt64(policy_.max_bits_per_client, out);
  bytes::PutDouble(policy_.max_epsilon_per_client, out);
  bytes::PutInt64(total_bits_, out);
  bytes::PutInt64(denied_charges_, out);

  // Canonical form: sorted ids, zero entries omitted. Denied attempts leave
  // behind zero-count map entries in memory; dropping them here makes
  // "same ledger" mean "same bytes" regardless of how the state was reached
  // (live run, journal replay, or snapshot restore).
  std::vector<int64_t> client_ids;
  client_ids.reserve(ledgers_.size());
  for (const auto& [client_id, ledger] : ledgers_) {
    if (ledger.bits > 0 || ledger.epsilon > 0.0) client_ids.push_back(client_id);
  }
  std::sort(client_ids.begin(), client_ids.end());
  bytes::PutUint32(static_cast<uint32_t>(client_ids.size()), out);
  for (const int64_t client_id : client_ids) {
    const ClientLedger& ledger = ledgers_.at(client_id);
    bytes::PutInt64(client_id, out);
    bytes::PutInt64(ledger.bits, out);
    bytes::PutDouble(ledger.epsilon, out);
    std::vector<int64_t> value_ids;
    value_ids.reserve(ledger.bits_per_value.size());
    for (const auto& [value_id, bits] : ledger.bits_per_value) {
      if (bits > 0) value_ids.push_back(value_id);
    }
    std::sort(value_ids.begin(), value_ids.end());
    bytes::PutUint32(static_cast<uint32_t>(value_ids.size()), out);
    for (const int64_t value_id : value_ids) {
      bytes::PutInt64(value_id, out);
      bytes::PutInt64(ledger.bits_per_value.at(value_id), out);
    }
  }
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
  std::unordered_map<int64_t, ClientLedger> ledgers;
  ledgers.reserve(client_count);
  int64_t ledger_bit_sum = 0;
  double ledger_epsilon_sum = 0.0;
  for (uint32_t c = 0; c < client_count; ++c) {
    int64_t client_id = 0;
    ClientLedger ledger;
    uint32_t value_count = 0;
    if (!bytes::GetInt64(buffer, &cursor, &client_id) ||
        !bytes::GetInt64(buffer, &cursor, &ledger.bits) ||
        !bytes::GetDouble(buffer, &cursor, &ledger.epsilon) ||
        !bytes::GetUint32(buffer, &cursor, &value_count)) {
      return false;
    }
    if (ledger.bits < 0 || !std::isfinite(ledger.epsilon) ||
        ledger.epsilon < 0.0) {
      return false;
    }
    int64_t value_bit_sum = 0;
    ledger.bits_per_value.reserve(value_count);
    for (uint32_t v = 0; v < value_count; ++v) {
      int64_t value_id = 0;
      int64_t bits = 0;
      if (!bytes::GetInt64(buffer, &cursor, &value_id) ||
          !bytes::GetInt64(buffer, &cursor, &bits)) {
        return false;
      }
      if (bits < 0 || !ledger.bits_per_value.emplace(value_id, bits).second) {
        return false;  // negative count or duplicate value entry
      }
      value_bit_sum += bits;
    }
    // Consistency: per-value bits must account for the client total.
    if (value_bit_sum != ledger.bits) return false;
    ledger_bit_sum += ledger.bits;
    ledger_epsilon_sum += ledger.epsilon;
    if (!ledgers.emplace(client_id, std::move(ledger)).second) {
      return false;  // duplicate client entry
    }
  }
  if (ledger_bit_sum != total_bits) return false;

  out->policy_ = policy;
  out->ledgers_ = std::move(ledgers);
  out->total_bits_ = total_bits;
  // Recomputed in the canonical (sorted-client) encoding order; may differ
  // from a live run's charge-order sum by FP rounding, which is why the
  // deterministic-metrics contract is scoped to journal-only recovery
  // (replay re-charges in the original order).
  out->total_epsilon_ = ledger_epsilon_sum;
  out->denied_charges_ = denied_charges;
  // Values restored from a snapshot are marked fully announced: their
  // first grant / first denial happened before the snapshot, and
  // re-announcing them would fabricate flight-recorder events the
  // original run never emitted.
  out->announced_.clear();
  for (const auto& [client_id, ledger] : out->ledgers_) {
    for (const auto& [value_id, bits] : ledger.bits_per_value) {
      if (bits > 0) out->announced_[value_id] = 3;
    }
  }
  out->RefreshObsGauges();
  *offset = cursor;
  return true;
}

}  // namespace bitpush
