// Measurement campaigns: several metrics collected on independent cadences
// from one fleet, under one shared privacy-meter budget.
//
// This is the coordinator logic around everything else: each scheduled
// query runs a federated mean query for its metric, the shared
// PrivacyMeter enforces the per-client disclosure caps across *all*
// metrics (Section 1.1's platform-level metering), and queries are skipped
// — not silently degraded — when the budget or the cohort minimum cannot
// be met.

#ifndef BITPUSH_FEDERATED_CAMPAIGN_H_
#define BITPUSH_FEDERATED_CAMPAIGN_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/privacy_meter.h"
#include "federated/persist_hooks.h"
#include "federated/resilience.h"
#include "federated/round.h"
#include "rng/rng.h"

namespace bitpush {

struct CampaignQuery {
  std::string name;
  // The meter's value id for this metric (distinct per metric).
  int64_t value_id = 0;
  // Run every `cadence_ticks` ticks (>= 1), starting at tick `phase`.
  int64_t cadence_ticks = 1;
  int64_t phase = 0;
  // Protocol parameters; adaptive.bits must match the codec width used by
  // the metric's population.
  FederatedQueryConfig query;

  // The schedule rule: the query runs at `tick`.
  bool ScheduledAt(int64_t tick) const {
    return tick >= phase && (tick - phase) % cadence_ticks == 0;
  }
};

struct CampaignTickResult {
  int64_t tick = 0;
  std::string query_name;
  // kRan: estimate valid. kSkippedCohort: below privacy minimum.
  // kSkippedBudget: the meter refused every report (budget exhausted).
  enum class Status { kRan, kSkippedCohort, kSkippedBudget } status =
      Status::kRan;
  double estimate = 0.0;
  int64_t reports = 0;

  friend bool operator==(const CampaignTickResult&,
                         const CampaignTickResult&) = default;
};

// Serialization for the journal's query-finished records (src/persist/).
// Decoding validates the status byte and counters and returns false
// without touching `*out` on any violation.
void EncodeCampaignTickResult(const CampaignTickResult& result,
                              std::vector<uint8_t>* out);
bool DecodeCampaignTickResult(std::span<const uint8_t> buffer,
                              size_t* offset, CampaignTickResult* out);

// Campaign-level durability hook: extends the per-round QueryRecorder with
// the query-scheduling granularity the coordinator journals at. A restored
// query (its kQueryFinished record survived the crash) is served straight
// from the journal — its protocol rounds never re-run, no client is
// re-contacted, and the meter is never re-charged.
class CampaignRecorder : public QueryRecorder {
 public:
  // Consulted before a scheduled query executes. Returning true fills
  // `*out` with the journaled tick result and skips execution entirely.
  virtual bool RestoreQueryResult(int64_t tick, size_t query_index,
                                  CampaignTickResult* out) = 0;

  // A query is about to execute live (it was not restored).
  virtual void OnQueryStarted(int64_t /*tick*/, size_t /*query_index*/,
                              int64_t /*value_id*/) {}

  // A live query finished; `outcome` carries the full protocol-level result
  // behind the summarized tick result, and the recorder may keep it.
  virtual void OnQueryFinished(int64_t /*tick*/, size_t /*query_index*/,
                               const CampaignTickResult& /*result*/,
                               FederatedQueryResult /*outcome*/) {}
};

class MeasurementCampaign {
 public:
  // `meter` may be null (no caps). Queries must have distinct names.
  //
  // `resilience` is the campaign-level recovery configuration
  // (federated/resilience.h): its `budget` is the deadline budget of one
  // *tick*, split evenly across the queries scheduled in that tick and
  // propagated query -> round -> report from there. When the breaker
  // policy is enabled the campaign owns the HealthTracker, so a client
  // quarantined by one query's failures is excluded from every later
  // query's cohort, backfill, and hedges until its cooldown-and-probe
  // cycle closes the breaker. When `resilience` is enabled it overrides
  // any per-query resilience config; the default leaves the queries'
  // own settings untouched.
  MeasurementCampaign(std::vector<CampaignQuery> queries, PrivacyMeter* meter,
                      ResilienceConfig resilience = {});

  // Binds the meter to `populations` (indexed parallel to the query list)
  // before anything reads it: every query's value id gets a count, the
  // first population's ids take the meter's lattice rows as far as they
  // lie on one lattice, in slot order, and every other id gets a row of
  // its own (PrivacyMeter::BindLattice, Register). It then closes the
  // meter's registration (PrivacyMeter::CloseRegistration), so that a
  // round registers no client: every round of the campaign must run over
  // these populations. Call before the first tick.
  void BindPopulations(
      const std::vector<const std::vector<Client>*>& populations);

  // Installs (or clears) the durability hook. Must be set before the tick
  // it should observe; the pointer is not owned.
  void set_recorder(CampaignRecorder* recorder) { recorder_ = recorder; }

  const std::vector<CampaignQuery>& queries() const { return queries_; }

  // Runs every query scheduled for `tick` against its client population
  // (`populations` is indexed parallel to the query list). Appends to and
  // returns the per-query results for this tick.
  std::vector<CampaignTickResult> RunTick(
      int64_t tick,
      const std::vector<const std::vector<Client>*>& populations,
      const std::vector<FixedPointCodec>& codecs, Rng& rng);

  const std::vector<CampaignTickResult>& history() const {
    return history_;
  }
  int64_t runs() const { return runs_; }
  int64_t skips() const { return skips_; }

  const ResilienceConfig& resilience() const { return resilience_; }
  // The campaign-owned circuit breaker (nullptr when the breaker policy is
  // disabled). Mutable access exists for the recovery layer, which restores
  // snapshot state and replays finished rounds into it.
  const HealthTracker* health() const {
    return health_.has_value() ? &*health_ : nullptr;
  }
  HealthTracker* mutable_health() {
    return health_.has_value() ? &*health_ : nullptr;
  }
  // Recovery-layer counters pooled over the queries this process ran live.
  const RetryStats& retry_stats() const { return retry_stats_; }

 private:
  std::vector<CampaignQuery> queries_;
  PrivacyMeter* meter_;
  ResilienceConfig resilience_;
  std::optional<HealthTracker> health_;
  RetryStats retry_stats_;
  CampaignRecorder* recorder_ = nullptr;
  std::vector<CampaignTickResult> history_;
  int64_t runs_ = 0;
  int64_t skips_ = 0;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_CAMPAIGN_H_
