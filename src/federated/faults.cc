#include "federated/faults.h"

#include "federated/wire.h"
#include "rng/rng.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {
namespace {

void CheckRate(double rate) {
  BITPUSH_CHECK_GE(rate, 0.0);
  BITPUSH_CHECK_LE(rate, 1.0);
}

// Salt stride separating retry attempts: attempt k uses the base salts
// shifted by k * kAttemptSaltStride, so attempt 0 reproduces the original
// hashes exactly and no attempt's salts collide with another's (the base
// salts occupy [0, 4 + flips), far below the stride).
constexpr uint64_t kAttemptSaltStride = 16;

uint64_t AttemptSalt(uint64_t base_salt, int64_t attempt) {
  return base_salt + kAttemptSaltStride * static_cast<uint64_t>(attempt);
}

}  // namespace

bool FaultRates::Any() const {
  return mid_round_dropout > 0.0 || straggler > 0.0 ||
         corrupt_message > 0.0 || truncate_message > 0.0 ||
         round_boundary_crash > 0.0;
}

FaultPlan::FaultPlan() = default;

FaultPlan::FaultPlan(uint64_t seed, const FaultRates& rates)
    : seed_(seed), rates_(rates), enabled_(rates.Any()) {
  CheckRate(rates_.mid_round_dropout);
  CheckRate(rates_.straggler);
  CheckRate(rates_.corrupt_message);
  CheckRate(rates_.truncate_message);
  CheckRate(rates_.round_boundary_crash);
  BITPUSH_CHECK_LE(rates_.mid_round_dropout + rates_.straggler +
                       rates_.corrupt_message + rates_.truncate_message +
                       rates_.round_boundary_crash,
                   1.0 + 1e-12);
}

uint64_t FaultPlan::Hash(int64_t round_id, int64_t client_id,
                         uint64_t salt) const {
  uint64_t h = Mix(seed_ ^ Mix(static_cast<uint64_t>(round_id)));
  h = Mix(h ^ static_cast<uint64_t>(client_id));
  return Mix(h ^ salt);
}

double FaultPlan::HashUniform(int64_t round_id, int64_t client_id,
                              uint64_t salt) const {
  return static_cast<double>(Hash(round_id, client_id, salt) >> 11) *
         0x1.0p-53;
}

FaultType FaultPlan::DecideAttempt(int64_t round_id, int64_t client_id,
                                   int64_t attempt) const {
  BITPUSH_CHECK_GE(attempt, 0);
  if (!enabled_) return FaultType::kNone;
  const double u =
      HashUniform(round_id, client_id, AttemptSalt(/*base_salt=*/0, attempt));
  double edge = rates_.mid_round_dropout;
  if (u < edge) return FaultType::kMidRoundDropout;
  edge += rates_.straggler;
  if (u < edge) return FaultType::kStraggler;
  edge += rates_.corrupt_message;
  if (u < edge) return FaultType::kCorruptMessage;
  edge += rates_.truncate_message;
  if (u < edge) return FaultType::kTruncateMessage;
  edge += rates_.round_boundary_crash;
  if (u < edge) {
    return round_id == 1 ? FaultType::kRoundBoundaryCrash : FaultType::kNone;
  }
  return FaultType::kNone;
}

void FaultPlan::CorruptBuffer(int64_t round_id, int64_t client_id,
                              int64_t attempt,
                              std::vector<uint8_t>* buffer) const {
  BITPUSH_CHECK(buffer != nullptr);
  BITPUSH_CHECK_GE(attempt, 0);
  if (buffer->empty()) return;
  const int flips = 1 + static_cast<int>(Hash(round_id, client_id,
                                              AttemptSalt(/*base_salt=*/2,
                                                          attempt)) %
                                         3);
  for (int k = 0; k < flips; ++k) {
    const uint64_t h = Hash(
        round_id, client_id,
        AttemptSalt(/*base_salt=*/3 + static_cast<uint64_t>(k), attempt));
    const size_t pos = static_cast<size_t>(h % buffer->size());
    // A non-zero XOR mask guarantees the byte actually changes.
    const uint8_t mask = static_cast<uint8_t>(1 + (h >> 32) % 255);
    (*buffer)[pos] ^= mask;
  }
}

size_t FaultPlan::TruncatedSize(int64_t round_id, int64_t client_id,
                                int64_t attempt, size_t full_size) const {
  BITPUSH_CHECK_GE(full_size, 1u);
  BITPUSH_CHECK_GE(attempt, 0);
  return static_cast<size_t>(
      Hash(round_id, client_id, AttemptSalt(/*base_salt=*/4, attempt)) %
      full_size);
}

int64_t FaultStats::InjectedTotal() const {
  return injected_dropouts + injected_stragglers + injected_corruptions +
         injected_truncations + injected_crashes;
}

void FaultStats::MergeFrom(const FaultStats& other) {
  injected_dropouts += other.injected_dropouts;
  injected_stragglers += other.injected_stragglers;
  injected_corruptions += other.injected_corruptions;
  injected_truncations += other.injected_truncations;
  injected_crashes += other.injected_crashes;
  late_reports_rejected += other.late_reports_rejected;
  late_reports_accepted += other.late_reports_accepted;
  corrupt_reports_rejected += other.corrupt_reports_rejected;
  corrupt_reports_accepted += other.corrupt_reports_accepted;
  truncated_reports_rejected += other.truncated_reports_rejected;
  recheckins_rejected += other.recheckins_rejected;
  backfill_requests += other.backfill_requests;
  backfill_reports += other.backfill_reports;
  backfill_rounds_used += other.backfill_rounds_used;
  static_policy_fallbacks += other.static_policy_fallbacks;
}

namespace {

// The 15 counters in their fixed serialization order; Encode and Decode
// share the list so the order cannot drift between them.
constexpr int64_t FaultStats::* kFaultStatsFields[] = {
    &FaultStats::injected_dropouts,
    &FaultStats::injected_stragglers,
    &FaultStats::injected_corruptions,
    &FaultStats::injected_truncations,
    &FaultStats::injected_crashes,
    &FaultStats::late_reports_rejected,
    &FaultStats::late_reports_accepted,
    &FaultStats::corrupt_reports_rejected,
    &FaultStats::corrupt_reports_accepted,
    &FaultStats::truncated_reports_rejected,
    &FaultStats::recheckins_rejected,
    &FaultStats::backfill_requests,
    &FaultStats::backfill_reports,
    &FaultStats::backfill_rounds_used,
    &FaultStats::static_policy_fallbacks,
};

}  // namespace

void EncodeFaultStats(const FaultStats& stats, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  for (const auto field : kFaultStatsFields) {
    bytes::PutInt64(stats.*field, out);
  }
}

bool DecodeFaultStats(std::span<const uint8_t> buffer, size_t* offset,
                      FaultStats* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  FaultStats stats;
  for (const auto field : kFaultStatsFields) {
    if (!bytes::GetInt64(buffer, &cursor, &(stats.*field))) return false;
    if (stats.*field < 0) return false;
  }
  *out = stats;
  *offset = cursor;
  return true;
}

std::optional<BitReport> DeliverFaultedReport(const FaultPlan& plan,
                                              int64_t round_id,
                                              int64_t client_id,
                                              int64_t attempt, FaultType fault,
                                              const BitReport& report,
                                              FaultStats* stats) {
  BITPUSH_CHECK(stats != nullptr);
  BITPUSH_CHECK(fault == FaultType::kCorruptMessage ||
                fault == FaultType::kTruncateMessage);
  std::vector<uint8_t> frame;
  // bitpush-lint: allow(privacy-metering): fault injection re-encodes a report the client already paid a meter charge for; no new bit is disclosed here
  EncodeBitReport(report, &frame);
  if (fault == FaultType::kTruncateMessage) {
    ++stats->injected_truncations;
    frame.resize(
        plan.TruncatedSize(round_id, client_id, attempt, frame.size()));
    size_t offset = 0;
    BitReport decoded;
    // A truncated frame is always shorter than the fixed wire size, so the
    // bounds-checked decode rejects it.
    if (!DecodeBitReport(frame, &offset, &decoded)) {
      ++stats->truncated_reports_rejected;
      return std::nullopt;
    }
    return decoded;
  }
  ++stats->injected_corruptions;
  plan.CorruptBuffer(round_id, client_id, attempt, &frame);
  size_t offset = 0;
  BitReport decoded;
  if (!DecodeBitReport(frame, &offset, &decoded)) {
    ++stats->corrupt_reports_rejected;
    return std::nullopt;
  }
  ++stats->corrupt_reports_accepted;
  return decoded;
}

}  // namespace bitpush
