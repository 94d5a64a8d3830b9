#include "federated/shard/runner.h"

// bitpush-lint: allow(privacy-metering): the runner orchestrates shards
// that each charge their own shard-local meter during collection; the
// delivery loop and the reference below move already-metered tallies.

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "federated/server.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "util/check.h"

namespace bitpush {
namespace {

bool ScheduledAt(const CampaignQuery& query, int64_t tick) {
  return tick >= query.phase &&
         (tick - query.phase) % query.cadence_ticks == 0;
}

// The crash sabotage applied after a faulted delivery attempt: the tick's
// work (or more) never became durable, and the process dies. In-memory
// shards have no durable suffix to lose — the restart alone wipes them
// back to tick 0.
bool ApplyShardSabotage(ShardCoordinator* coord, const ShardFaultPlan& plan,
                        ShardFaultType fault, int64_t tick, int64_t attempt,
                        std::string* error) {
  if (coord->durable()) {
    const std::string journal = coord->journal_path();
    switch (fault) {
      case ShardFaultType::kCrashAtRecord: {
        JournalReadResult contents;
        if (!ReadShardJournal(journal, &contents, error)) return false;
        const int64_t keep = plan.CrashRecordIndex(
            coord->shard_index(), tick, attempt,
            static_cast<int64_t>(contents.records.size()));
        if (!TruncateShardJournalToRecords(
                journal, static_cast<size_t>(keep), error)) {
          return false;
        }
        break;
      }
      case ShardFaultType::kTornJournal: {
        if (!TearShardJournalTail(
                journal,
                plan.TornTailBytes(coord->shard_index(), tick, attempt),
                error)) {
          return false;
        }
        break;
      }
      case ShardFaultType::kStaleSnapshot: {
        // Every record since the last snapshot is gone; recovery restarts
        // from the snapshot alone (or from scratch if none was taken).
        if (!TruncateShardJournalToRecords(journal, 0, error)) return false;
        break;
      }
      case ShardFaultType::kNone:
      case ShardFaultType::kStall:
        break;
    }
  }
  coord->Restart();
  return true;
}

// The reference's own outcome capture: nothing restored, full outcomes
// kept per query. Shards keep theirs in DurableCampaignRunner's
// full_results(); this stays separate so the oracle shares no
// campaign-running code with the shards it checks.
class CaptureRecorder : public CampaignRecorder {
 public:
  bool RestoreQueryResult(int64_t /*tick*/, size_t /*query_index*/,
                          CampaignTickResult* /*out*/) override {
    return false;
  }
  void OnQueryFinished(int64_t /*tick*/, size_t query_index,
                       const CampaignTickResult& /*result*/,
                       const FederatedQueryResult& outcome) override {
    outcomes[query_index] = outcome;
  }
  bool RestoreRound(int64_t /*round_id*/, RoundOutcome* /*out*/) override {
    return false;
  }
  void OnRoundClosed(int64_t /*round_id*/,
                     const RoundOutcome& /*outcome*/) override {}

  std::map<size_t, FederatedQueryResult> outcomes;
};

}  // namespace

namespace {

// The shard retry budget is max_attempts_per_tick, not RetryPolicy's
// per-client counters, so the jitter schedule must be usable even with the
// policy's default (retries disabled at the round layer).
RetryPolicy ShardBackoffPolicy(RetryPolicy policy,
                               int64_t max_attempts_per_tick) {
  if (!policy.enabled()) {
    policy.max_retries_per_client = max_attempts_per_tick;
  }
  return policy;
}

}  // namespace

ShardedCampaignRunner::ShardedCampaignRunner(
    std::vector<CampaignQuery> queries, MeterPolicy policy,
    ShardedCampaignOptions options)
    : queries_(std::move(queries)),
      policy_(policy),
      options_(std::move(options)),
      backoff_(options_.seed,
               ShardBackoffPolicy(options_.backoff,
                                  options_.max_attempts_per_tick)) {
  BITPUSH_CHECK_GE(options_.shards, 1);
  BITPUSH_CHECK_GE(options_.max_attempts_per_tick, 1);
  BITPUSH_CHECK(options_.attempt_cost_minutes >= 0.0);
  BITPUSH_CHECK(options_.stall_cost_minutes >= 0.0);
}

void ShardedCampaignRunner::Open(
    const std::vector<const std::vector<Client>*>& populations,
    const std::vector<FixedPointCodec>& codecs) {
  BITPUSH_CHECK(!open_) << "Open() called twice";
  BITPUSH_CHECK_EQ(populations.size(), queries_.size());
  BITPUSH_CHECK_EQ(codecs.size(), queries_.size());

  // Partition every query's population, then regroup per shard.
  std::vector<std::vector<std::vector<Client>>> per_query_partitions;
  per_query_partitions.reserve(queries_.size());
  for (const std::vector<Client>* population : populations) {
    BITPUSH_CHECK(population != nullptr);
    per_query_partitions.push_back(
        PartitionClients(*population, options_.shards));
  }

  coordinators_.reserve(static_cast<size_t>(options_.shards));
  for (int64_t s = 0; s < options_.shards; ++s) {
    ShardCoordinatorOptions shard_options;
    shard_options.shard_index = s;
    shard_options.seed = ShardSeed(options_.seed, s);
    if (!options_.state_root.empty()) {
      shard_options.state_dir =
          options_.state_root + "/shard" + std::to_string(s);
    }
    shard_options.fsync = options_.fsync;
    auto coordinator = std::make_unique<ShardCoordinator>(
        queries_, policy_, std::move(shard_options), options_.resilience);
    std::vector<std::vector<Client>> partitions;
    partitions.reserve(queries_.size());
    for (size_t qi = 0; qi < queries_.size(); ++qi) {
      partitions.push_back(
          std::move(per_query_partitions[qi][static_cast<size_t>(s)]));
    }
    coordinator->Bind(std::move(partitions), codecs);
    coordinators_.push_back(std::move(coordinator));
  }
  merge_ = std::make_unique<MergeTier>(queries_, options_.shards,
                                       options_.quorum_fraction);
  open_ = true;
}

ShardCoordinator* ShardedCampaignRunner::shard(int64_t s) {
  BITPUSH_CHECK(s >= 0 && s < options_.shards);
  return coordinators_[static_cast<size_t>(s)].get();
}

std::vector<uint8_t> ShardedCampaignRunner::shard_meter_bytes(
    int64_t s) const {
  BITPUSH_CHECK(s >= 0 && s < options_.shards);
  const PrivacyMeter* meter =
      coordinators_[static_cast<size_t>(s)]->local_meter();
  std::vector<uint8_t> bytes;
  if (meter != nullptr) meter->EncodeTo(&bytes);
  return bytes;
}

bool ShardedCampaignRunner::RunTick(int64_t tick, MergedTickResult* out,
                                    std::string* error) {
  BITPUSH_CHECK(open_) << "Open() before RunTick()";
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK_EQ(tick, next_tick_) << "ticks must run in order";

  const ShardFaultPlan* plan = options_.fault_plan;
  std::vector<ShardLoss> losses;
  std::vector<int64_t> delivered_shards;
  double makespan = 0.0;

  // Merge-tier tick span: the root of this tick's cross-shard trace. Its
  // context rides into every CollectTick (and from there across the frame
  // codec), so each shard's collect/harvest/recover spans render as
  // children of this span in the Chrome trace export.
  obs::Span merge_span("merge.tick", "merge");
  merge_span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  const obs::TraceContext merge_context = merge_span.context();

  for (int64_t s = 0; s < options_.shards; ++s) {
    ShardCoordinator* coordinator = coordinators_[static_cast<size_t>(s)].get();
    const auto lose_shard = [&] {
      ShardLoss loss;
      loss.shard = s;
      loss.clients_per_query.reserve(queries_.size());
      for (size_t qi = 0; qi < queries_.size(); ++qi) {
        loss.clients_per_query.push_back(coordinator->partition_clients(qi));
      }
      losses.push_back(std::move(loss));
      coordinator->NoteLostTick();
      // kVolatile: shard delivery is harness scheduling, invisible to the
      // single-coordinator reference the stable ring is compared against.
      obs::EventArgs args;
      args.tick = tick;
      args.shard = s;
      args.detail = "missed tick deadline";
      obs::EmitEvent(obs::EventType::kShardLost, obs::Determinism::kVolatile,
                     std::move(args));
    };

    if (plan != nullptr && plan->PermanentlyLost(s, tick)) {
      lose_shard();
      continue;
    }

    double clock = 0.0;
    bool delivered = false;
    const int64_t recoveries_before = coordinator->metrics().recoveries;
    for (int64_t attempt = 0; attempt < options_.max_attempts_per_tick;
         ++attempt) {
      if (attempt > 0) {
        // 1-based attempt index for the schedule's decorrelated jitter.
        const double wait = backoff_.BackoffMinutes(tick, s, attempt);
        if (clock + wait + options_.attempt_cost_minutes >
            options_.tick_budget_minutes) {
          break;  // the retry cannot finish inside the tick budget
        }
        clock += wait;
        coordinator->NoteRetry();
      } else if (options_.attempt_cost_minutes >
                 options_.tick_budget_minutes) {
        break;
      }
      clock += options_.attempt_cost_minutes;
      coordinator->NoteAttempt();

      const ShardFaultType fault =
          plan != nullptr ? plan->Decide(s, tick, attempt)
                          : ShardFaultType::kNone;
      if (fault == ShardFaultType::kStall) {
        coordinator->NoteStall();
        clock += options_.stall_cost_minutes;
        continue;
      }

      ShardTickFrame frame;
      if (!coordinator->CollectTick(tick, &frame, error, merge_context)) {
        return false;
      }
      if (fault == ShardFaultType::kNone) {
        // The frame crosses the wire codec even in-process: the merge
        // tier only ever consumes fail-closed-decoded bytes.
        std::vector<uint8_t> wire;
        EncodeShardTickFrame(frame, &wire);
        ShardTickFrame decoded;
        if (!DecodeShardTickFrame(wire, &decoded)) {
          *error = "shard tick frame rejected by the merge tier";
          return false;
        }
        merge_->AddFrame(decoded);
        delivered = true;
        break;
      }
      if (!ApplyShardSabotage(coordinator, *plan, fault, tick, attempt,
                              error)) {
        return false;
      }
    }

    if (delivered) {
      delivered_shards.push_back(s);
      makespan = std::max(makespan, clock);
      if (coordinator->metrics().recoveries > recoveries_before) {
        obs::EventArgs args;
        args.tick = tick;
        args.shard = s;
        args.detail = "delivered after crash recovery (replayed=" +
                      std::to_string(coordinator->metrics().replayed_records) +
                      ")";
        obs::EmitEvent(obs::EventType::kShardRecovered,
                       obs::Determinism::kVolatile, std::move(args));
      }
    } else {
      lose_shard();
    }
  }

  MergedTickResult result = merge_->CloseTick(tick, losses);

  // Snapshots only after the merge consumed the tick, and only on the
  // shards that delivered it — a lost shard's undelivered journal suffix
  // must survive for its catch-up recovery.
  if (options_.snapshot_every_ticks > 0 &&
      (tick + 1) % options_.snapshot_every_ticks == 0) {
    for (const int64_t s : delivered_shards) {
      if (!coordinators_[static_cast<size_t>(s)]->Snapshot(error)) {
        return false;
      }
    }
  }

  history_.push_back(result);
  makespan_minutes_.push_back(makespan);
  ++next_tick_;
  *out = std::move(result);
  return true;
}

ReferenceCampaignResult RunSingleCoordinatorReference(
    const std::vector<CampaignQuery>& queries, const MeterPolicy& policy,
    int64_t shards, uint64_t seed,
    const std::vector<const std::vector<Client>*>& populations,
    const std::vector<FixedPointCodec>& codecs, int64_t ticks,
    ResilienceConfig resilience) {
  BITPUSH_CHECK_GE(shards, 1);
  BITPUSH_CHECK_EQ(populations.size(), queries.size());
  BITPUSH_CHECK_EQ(codecs.size(), queries.size());

  // The same deterministic split and seeds the sharded runner uses —
  // executed inline with nothing but plain campaigns.
  struct ShardState {
    std::vector<std::vector<Client>> partitions;  // per query
    std::unique_ptr<PrivacyMeter> meter;
    std::unique_ptr<MeasurementCampaign> campaign;
    std::unique_ptr<CaptureRecorder> recorder;
    Rng rng{0};
  };
  std::vector<ShardState> states(static_cast<size_t>(shards));
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    BITPUSH_CHECK(populations[qi] != nullptr);
    std::vector<std::vector<Client>> partitions =
        PartitionClients(*populations[qi], shards);
    for (int64_t s = 0; s < shards; ++s) {
      states[static_cast<size_t>(s)].partitions.push_back(
          std::move(partitions[static_cast<size_t>(s)]));
    }
  }
  for (int64_t s = 0; s < shards; ++s) {
    ShardState& state = states[static_cast<size_t>(s)];
    state.meter = std::make_unique<PrivacyMeter>(policy);
    state.campaign = std::make_unique<MeasurementCampaign>(
        queries, state.meter.get(), resilience);
    state.recorder = std::make_unique<CaptureRecorder>();
    state.campaign->set_recorder(state.recorder.get());
    state.rng = Rng(ShardSeed(seed, s));
  }

  ReferenceCampaignResult reference;
  for (int64_t tick = 0; tick < ticks; ++tick) {
    // Per shard: run the tick and normalize its scheduled queries into
    // frame rows with the shared MakeShardQueryFrame.
    std::vector<std::vector<ShardQueryFrame>> rows(
        static_cast<size_t>(shards));
    for (int64_t s = 0; s < shards; ++s) {
      ShardState& state = states[static_cast<size_t>(s)];
      std::vector<const std::vector<Client>*> shard_populations;
      shard_populations.reserve(queries.size());
      for (const std::vector<Client>& partition : state.partitions) {
        shard_populations.push_back(&partition);
      }
      state.recorder->outcomes.clear();
      const std::vector<CampaignTickResult> results = state.campaign->RunTick(
          tick, shard_populations, codecs, state.rng);

      // Emulate the fault-free shard-layer counters: one clean delivery
      // attempt per shard per tick.
      ++reference.metrics.ticks_completed;
      ++reference.metrics.shard_attempts;

      size_t result_index = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        if (!ScheduledAt(queries[qi], tick)) continue;
        BITPUSH_CHECK_LT(result_index, results.size());
        const CampaignTickResult& result = results[result_index++];
        const auto it = state.recorder->outcomes.find(qi);
        BITPUSH_CHECK(it != state.recorder->outcomes.end());
        ShardQueryFrame row = MakeShardQueryFrame(
            static_cast<int64_t>(qi),
            static_cast<int64_t>(state.partitions[qi].size()), result,
            it->second);
        if (row.result.status == CampaignTickResult::Status::kRan) {
          ++reference.metrics.queries_ran;
        } else {
          ++reference.metrics.queries_skipped;
        }
        reference.metrics.reports_total += row.result.reports;
        rows[static_cast<size_t>(s)].push_back(std::move(row));
      }
    }

    // Merge: plain scalar tally adds (never the kernels — that contrast
    // is the point of the oracle) + the shared finalize arithmetic.
    MergedTickResult merged_tick;
    merged_tick.tick = tick;
    merged_tick.shards_delivered = shards;
    size_t scheduled_index = 0;
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      if (!ScheduledAt(queries[qi], tick)) continue;
      std::vector<const ShardQueryFrame*> delivered;
      delivered.reserve(static_cast<size_t>(shards));
      TallyBatch merged;
      for (int64_t s = 0; s < shards; ++s) {
        const ShardQueryFrame& row =
            rows[static_cast<size_t>(s)][scheduled_index];
        delivered.push_back(&row);
        if (row.tallies.bits() == 0) continue;
        if (merged.bits() == 0) {
          merged.totals.assign(row.tallies.totals.size(), 0);
          merged.ones.assign(row.tallies.ones.size(), 0);
        }
        BITPUSH_CHECK_EQ(merged.bits(), row.tallies.bits());
        for (size_t j = 0; j < merged.totals.size(); ++j) {
          merged.totals[j] += row.tallies.totals[j];
          merged.ones[j] += row.tallies.ones[j];
        }
      }
      merged_tick.queries.push_back(FinalizeMergedQuery(
          queries[qi], tick, delivered, std::move(merged),
          /*clients_lost=*/0, /*shards_lost=*/0));
      ++scheduled_index;
    }
    reference.ticks.push_back(std::move(merged_tick));
  }

  reference.shard_meter_bytes.resize(static_cast<size_t>(shards));
  for (int64_t s = 0; s < shards; ++s) {
    states[static_cast<size_t>(s)].meter->EncodeTo(
        &reference.shard_meter_bytes[static_cast<size_t>(s)]);
    reference.retry_stats.MergeFrom(
        states[static_cast<size_t>(s)].campaign->retry_stats());
  }
  return reference;
}

}  // namespace bitpush
