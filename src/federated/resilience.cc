#include "federated/resilience.h"

#include <algorithm>
#include <cmath>

#include "obs/events.h"
#include "rng/rng.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {
namespace {

// Domain-separation constant so backoff hashes can never collide with the
// fault plan's salts even under an identical seed ("RTRY").
constexpr uint64_t kBackoffDomain = 0x52545259ULL;

double HashUniform(uint64_t seed, int64_t round_id, int64_t client_id,
                   uint64_t salt) {
  uint64_t h = Mix(seed ^ Mix(static_cast<uint64_t>(round_id)));
  h = Mix(h ^ static_cast<uint64_t>(client_id));
  h = Mix(h ^ (kBackoffDomain + salt));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool ResilienceConfig::Enabled() const {
  return retry.enabled() || hedge.enabled || breaker.enabled();
}

int64_t RetryStats::RecoveredTotal() const {
  return retry_reports_recovered + hedge_reports;
}

namespace {

// Counter block in its fixed serialization order; Encode and Decode share
// the list so the order cannot drift (same idiom as kFaultStatsFields).
constexpr int64_t RetryStats::* kRetryStatsCounters[] = {
    &RetryStats::retries_scheduled,
    &RetryStats::retransmits_requested,
    &RetryStats::retry_reports_recovered,
    &RetryStats::retries_exhausted,
    &RetryStats::hedges_issued,
    &RetryStats::hedge_reports,
    &RetryStats::hedge_failures,
    &RetryStats::hedge_dedup_drops,
    &RetryStats::breaker_skips,
    &RetryStats::breaker_probes,
    &RetryStats::breaker_opens,
    &RetryStats::breaker_closes,
};

constexpr double RetryStats::* kRetryStatsMinutes[] = {
    &RetryStats::backoff_minutes,
    &RetryStats::elapsed_minutes,
};

}  // namespace

void RetryStats::MergeFrom(const RetryStats& other) {
  for (const auto field : kRetryStatsCounters) {
    this->*field += other.*field;
  }
  for (const auto field : kRetryStatsMinutes) {
    this->*field += other.*field;
  }
}

void EncodeRetryStats(const RetryStats& stats, std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  for (const auto field : kRetryStatsCounters) {
    bytes::PutInt64(stats.*field, out);
  }
  for (const auto field : kRetryStatsMinutes) {
    bytes::PutDouble(stats.*field, out);
  }
}

bool DecodeRetryStats(std::span<const uint8_t> buffer, size_t* offset,
                      RetryStats* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  RetryStats stats;
  for (const auto field : kRetryStatsCounters) {
    if (!bytes::GetInt64(buffer, &cursor, &(stats.*field))) return false;
    if (stats.*field < 0) return false;
  }
  for (const auto field : kRetryStatsMinutes) {
    if (!bytes::GetDouble(buffer, &cursor, &(stats.*field))) return false;
    if (!std::isfinite(stats.*field) || stats.*field < 0.0) return false;
  }
  *out = stats;
  *offset = cursor;
  return true;
}

double BackoffMinutes(uint64_t seed, int64_t round_id, int64_t client_id,
                      int64_t attempt) {
  BITPUSH_CHECK_GE(attempt, 1);
  // Decorrelated jitter: b_k drawn from [base, 3 * b_{k-1}], capped. The
  // draw is a pure hash of (seed, round, client, k), so the schedule for
  // attempt k is fixed the moment the plan is configured.
  double backoff = kBaseBackoffMinutes;
  for (int64_t k = 1; k <= attempt; ++k) {
    const double u =
        HashUniform(seed, round_id, client_id, static_cast<uint64_t>(k));
    backoff = std::min(kCapBackoffMinutes,
                       kBaseBackoffMinutes +
                           u * (3.0 * backoff - kBaseBackoffMinutes));
  }
  return backoff;
}

HealthTracker::HealthTracker() = default;

HealthTracker::HealthTracker(const BreakerPolicy& policy) : policy_(policy) {
  BITPUSH_CHECK_GE(policy_.consecutive_failures_to_open, 0);
  BITPUSH_CHECK_GE(policy_.cooldown_rounds, 1);
}

void HealthTracker::BeginRound() {
  if (!policy_.enabled()) return;
  for (auto& [id, health] : clients_) {
    if (health.state != BreakerState::kOpen) continue;
    if (--health.cooldown_remaining <= 0) {
      health.state = BreakerState::kHalfOpen;
      health.cooldown_remaining = 0;
    }
  }
}

AssignmentDecision HealthTracker::Decision(int64_t client_id) const {
  if (!policy_.enabled()) return AssignmentDecision::kAssign;
  const auto it = clients_.find(client_id);
  if (it == clients_.end()) return AssignmentDecision::kAssign;
  switch (it->second.state) {
    case BreakerState::kClosed:
      return AssignmentDecision::kAssign;
    case BreakerState::kOpen:
      return AssignmentDecision::kSkip;
    case BreakerState::kHalfOpen:
      return AssignmentDecision::kProbe;
  }
  return AssignmentDecision::kAssign;
}

BreakerState HealthTracker::state(int64_t client_id) const {
  const auto it = clients_.find(client_id);
  return it == clients_.end() ? BreakerState::kClosed : it->second.state;
}

void HealthTracker::ObserveRound(int64_t round_id,
                                 const std::vector<int64_t>& succeeded,
                                 const std::vector<int64_t>& failed) {
  if (!policy_.enabled()) return;
  // Flight-recorder breaker transitions. ObserveRound is the exactly-once
  // transition site on every execution path — live rounds, journal-restored
  // rounds, and recovery's restore of finished queries — and the
  // transitions are pure functions of the journaled contact list split by
  // `accepted` (ObserveRoundHealth), so the events are recovery-stable.
  const auto announce = [&](int64_t client_id, const char* what) {
    obs::EventArgs args;
    args.round_id = round_id;
    args.detail = std::string(what) + " client=" + std::to_string(client_id);
    obs::EmitEvent(obs::EventType::kBreakerTransition,
                   obs::Determinism::kStable, std::move(args));
  };
  for (const int64_t id : succeeded) {
    ClientHealth& health = clients_[id];
    health.consecutive_failures = 0;
    if (health.state == BreakerState::kHalfOpen) {
      // The probe assignment came back: close the breaker.
      health = ClientHealth{};
      ++closes_;
      announce(id, "closed");
    }
  }
  for (const int64_t id : failed) {
    ClientHealth& health = clients_[id];
    ++health.consecutive_failures;
    if (health.state == BreakerState::kHalfOpen) {
      // Failed probe: straight back to quarantine.
      health.state = BreakerState::kOpen;
      health.cooldown_remaining = policy_.cooldown_rounds;
      ++opens_;
      announce(id, "opened (failed probe)");
    } else if (health.state == BreakerState::kClosed &&
               health.consecutive_failures >=
                   policy_.consecutive_failures_to_open) {
      health.state = BreakerState::kOpen;
      health.cooldown_remaining = policy_.cooldown_rounds;
      ++opens_;
      announce(id, "opened");
    }
  }
}

int64_t HealthTracker::quarantined_clients() const {
  int64_t count = 0;
  for (const auto& [id, health] : clients_) {
    if (health.state != BreakerState::kClosed) ++count;
  }
  return count;
}

void HealthTracker::EncodeTo(std::vector<uint8_t>* out) const {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(policy_.consecutive_failures_to_open, out);
  bytes::PutInt64(policy_.cooldown_rounds, out);
  bytes::PutInt64(opens_, out);
  bytes::PutInt64(closes_, out);
  bytes::PutUint32(static_cast<uint32_t>(clients_.size()), out);
  for (const auto& [id, health] : clients_) {
    bytes::PutInt64(id, out);
    bytes::PutByte(static_cast<uint8_t>(health.state), out);
    bytes::PutInt64(health.consecutive_failures, out);
    bytes::PutInt64(health.cooldown_remaining, out);
  }
}

bool HealthTracker::DecodeFrom(std::span<const uint8_t> buffer,
                               size_t* offset, HealthTracker* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  BreakerPolicy policy;
  if (!bytes::GetInt64(buffer, &cursor,
                       &policy.consecutive_failures_to_open) ||
      !bytes::GetInt64(buffer, &cursor, &policy.cooldown_rounds)) {
    return false;
  }
  // The recorded state only means anything under the policy it was built
  // with: a recovering coordinator must be configured identically.
  if (!(policy == out->policy_)) return false;
  int64_t opens = 0;
  int64_t closes = 0;
  uint32_t count = 0;
  if (!bytes::GetInt64(buffer, &cursor, &opens) || opens < 0) return false;
  if (!bytes::GetInt64(buffer, &cursor, &closes) || closes < 0) return false;
  if (!bytes::GetUint32(buffer, &cursor, &count)) return false;
  std::map<int64_t, ClientHealth> clients;
  int64_t previous_id = 0;
  for (uint32_t i = 0; i < count; ++i) {
    int64_t id = 0;
    uint8_t state = 0;
    ClientHealth health;
    if (!bytes::GetInt64(buffer, &cursor, &id) ||
        !bytes::GetByte(buffer, &cursor, &state) ||
        !bytes::GetInt64(buffer, &cursor, &health.consecutive_failures) ||
        !bytes::GetInt64(buffer, &cursor, &health.cooldown_remaining)) {
      return false;
    }
    if (i > 0 && id <= previous_id) return false;  // canonical ascending order
    if (state > static_cast<uint8_t>(BreakerState::kHalfOpen)) return false;
    if (health.consecutive_failures < 0 || health.cooldown_remaining < 0) {
      return false;
    }
    health.state = static_cast<BreakerState>(state);
    if (health.state != BreakerState::kOpen && health.cooldown_remaining != 0) {
      return false;
    }
    clients.emplace(id, health);
    previous_id = id;
  }
  out->clients_ = std::move(clients);
  out->opens_ = opens;
  out->closes_ = closes;
  *offset = cursor;
  return true;
}

}  // namespace bitpush
