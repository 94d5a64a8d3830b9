#include "federated/campaign.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>

#include "federated/obs_hooks.h"
#include "obs/trace.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {

void EncodeCampaignTickResult(const CampaignTickResult& result,
                              std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(result.tick, out);
  bytes::PutString(result.query_name, out);
  bytes::PutByte(static_cast<uint8_t>(result.status), out);
  bytes::PutDouble(result.estimate, out);
  bytes::PutInt64(result.reports, out);
}

bool DecodeCampaignTickResult(std::span<const uint8_t> buffer,
                              size_t* offset, CampaignTickResult* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  CampaignTickResult result;
  uint8_t status = 0;
  if (!bytes::GetInt64(buffer, &cursor, &result.tick) ||
      !bytes::GetString(buffer, &cursor, &result.query_name) ||
      !bytes::GetByte(buffer, &cursor, &status) ||
      !bytes::GetDouble(buffer, &cursor, &result.estimate) ||
      !bytes::GetInt64(buffer, &cursor, &result.reports)) {
    return false;
  }
  if (result.tick < 0 || result.reports < 0 ||
      status > static_cast<uint8_t>(
                   CampaignTickResult::Status::kSkippedBudget) ||
      std::isnan(result.estimate)) {
    return false;
  }
  result.status = static_cast<CampaignTickResult::Status>(status);
  *out = std::move(result);
  *offset = cursor;
  return true;
}

MeasurementCampaign::MeasurementCampaign(std::vector<CampaignQuery> queries,
                                         PrivacyMeter* meter,
                                         ResilienceConfig resilience)
    : queries_(std::move(queries)),
      meter_(meter),
      resilience_(resilience) {
  BITPUSH_CHECK(!queries_.empty());
  std::set<std::string> names;
  for (const CampaignQuery& query : queries_) {
    BITPUSH_CHECK_GE(query.cadence_ticks, 1);
    BITPUSH_CHECK_GE(query.phase, 0);
    BITPUSH_CHECK(names.insert(query.name).second)
        << "duplicate query name " << query.name;
  }
  if (resilience_.breaker.enabled()) {
    health_.emplace(resilience_.breaker);
  }
}

void MeasurementCampaign::BindPopulations(
    const std::vector<const std::vector<Client>*>& populations) {
  BITPUSH_CHECK_EQ(populations.size(), queries_.size());
  for (const std::vector<Client>* population : populations) {
    BITPUSH_CHECK(population != nullptr);
  }
  if (meter_ == nullptr) return;
  for (const CampaignQuery& query : queries_) {
    meter_->RegisterValue(query.value_id);
  }
  // The first population's longest prefix of ids first + k * stride takes
  // the lattice rows; a meter that holds rows already gets none.
  const std::vector<Client>& first = *populations.front();
  size_t lattice = 0;
  int64_t stride = 1;
  if (meter_->rows() == 0 && !first.empty()) {
    lattice = 1;
    if (first.size() > 1 &&
        !__builtin_sub_overflow(first[1].id(), first[0].id(), &stride) &&
        stride > 0) {
      int64_t step = 0;
      for (lattice = 2;
           lattice < first.size() &&
           !__builtin_sub_overflow(first[lattice].id(),
                                   first[lattice - 1].id(), &step) &&
           step == stride;
           ++lattice) {
      }
    } else {
      stride = 1;
    }
    meter_->BindLattice(first.front().id(), stride, lattice);
  }
  for (size_t q = 0; q < populations.size(); ++q) {
    // A population shared by several queries is registered once.
    if (std::find(populations.begin(), populations.begin() + q,
                  populations[q]) != populations.begin() + q) {
      continue;
    }
    const std::vector<Client>& population = *populations[q];
    for (size_t i = q == 0 ? lattice : 0; i < population.size(); ++i) {
      meter_->Register(population[i].id());
    }
  }
  meter_->CloseRegistration();
}

std::vector<CampaignTickResult> MeasurementCampaign::RunTick(
    int64_t tick,
    const std::vector<const std::vector<Client>*>& populations,
    const std::vector<FixedPointCodec>& codecs, Rng& rng) {
  BITPUSH_CHECK_EQ(populations.size(), queries_.size());
  BITPUSH_CHECK_EQ(codecs.size(), queries_.size());
  BITPUSH_CHECK_GE(tick, 0);

  // The tick's deadline budget is split evenly across the queries this
  // tick actually schedules. Counted up front so the split does not depend
  // on execution order.
  int64_t scheduled_count = 0;
  for (const CampaignQuery& query : queries_) {
    if (query.ScheduledAt(tick)) ++scheduled_count;
  }
  const DeadlineBudget query_budget =
      scheduled_count > 0 ? resilience_.budget.Split(scheduled_count)
                          : resilience_.budget;

  obs::Span tick_span("tick", "campaign");
  tick_span.set_ids(tick, -1, -1);
  tick_span.AddNumeric("scheduled", static_cast<double>(scheduled_count));
  ObserveCampaignTick();

  std::vector<CampaignTickResult> results;
  for (size_t q = 0; q < queries_.size(); ++q) {
    const CampaignQuery& scheduled = queries_[q];
    if (!scheduled.ScheduledAt(tick)) continue;
    BITPUSH_CHECK(populations[q] != nullptr);

    // Every scheduled query gets its own forked stream, drawn whether the
    // query runs live or is restored from the journal — so after a
    // crash-recovery skip, the queries that follow still see the streams
    // an uninterrupted run would have given them.
    Rng query_rng = rng.Fork();

    CampaignTickResult result;
    result.tick = tick;
    result.query_name = scheduled.name;

    obs::Span query_span("query", "campaign");
    query_span.set_ids(tick, static_cast<int64_t>(q), -1);
    query_span.AddString("query_name", scheduled.name);

    if (recorder_ == nullptr ||
        !recorder_->RestoreQueryResult(tick, q, &result)) {
      if (recorder_ != nullptr) {
        recorder_->OnQueryStarted(tick, q, scheduled.value_id);
      }
      FederatedQueryConfig config = scheduled.query;
      config.value_id = scheduled.value_id;
      config.recorder = recorder_;
      if (resilience_.Enabled()) {
        config.resilience = resilience_;
        config.resilience.budget = query_budget;
      }
      if (health_.has_value()) config.health = &*health_;
      FederatedQueryResult outcome = RunFederatedMeanQuery(
          *populations[q], codecs[q], config, meter_, query_rng);
      retry_stats_.MergeFrom(outcome.retry);
      result.reports = outcome.round1.responded + outcome.round2.responded;
      if (outcome.aborted) {
        result.status = CampaignTickResult::Status::kSkippedCohort;
      } else if (result.reports == 0) {
        // Every client declined: the shared budget is spent for this value.
        result.status = CampaignTickResult::Status::kSkippedBudget;
      } else {
        result.status = CampaignTickResult::Status::kRan;
        result.estimate = outcome.estimate;
      }
      if (recorder_ != nullptr) {
        recorder_->OnQueryFinished(tick, q, result, std::move(outcome));
      }
    }
    // Query-boundary metrics live on this common tail so a query restored
    // from the journal counts exactly like one that ran live.
    ObserveQueryResult(result);
    query_span.AddString(
        "status",
        result.status == CampaignTickResult::Status::kRan
            ? "ran"
            : (result.status == CampaignTickResult::Status::kSkippedCohort
                   ? "skipped_cohort"
                   : "skipped_budget"));
    query_span.End();
    if (result.status == CampaignTickResult::Status::kRan) {
      ++runs_;
    } else {
      ++skips_;
    }
    history_.push_back(result);
    results.push_back(result);
  }
  return results;
}

}  // namespace bitpush
