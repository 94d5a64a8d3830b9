#include "federated/shard/runner.h"

#include <algorithm>
#include <cstdint>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "federated/server.h"
#include "obs/capture.h"
#include "obs/events.h"
#include "obs/trace.h"
#include "persist/journal.h"
#include "util/check.h"
#include "util/workers.h"

namespace bitpush {
namespace {

// The crash sabotage applied after a faulted delivery attempt: the process
// dies, and the tick's work (or more) never became durable. The restart
// comes first, because a journal cut is legal only while no writer holds
// the journal open (persist/journal.h). In-memory shards have no durable
// suffix to lose — the restart alone wipes them back to tick 0.
bool ApplyShardSabotage(ShardCoordinator* coord, const ShardFaultPlan& plan,
                        ShardFaultType fault, int64_t tick, int64_t attempt,
                        std::string* error) {
  coord->Restart();
  if (!coord->durable()) return true;
  const std::string journal = coord->journal_path();
  switch (fault) {
    case ShardFaultType::kCrashAtRecord: {
      JournalReadResult contents;
      if (!ReadJournalFromFirstFrame(journal, &contents, error)) return false;
      const int64_t keep = plan.CrashRecordIndex(
          coord->shard_index(), tick, attempt,
          static_cast<int64_t>(contents.records.size()));
      return TruncateJournalToRecords(journal, static_cast<size_t>(keep),
                                      error);
    }
    case ShardFaultType::kTornJournal:
      return TearJournalTail(
          journal, plan.TornTailBytes(coord->shard_index(), tick, attempt),
          error);
    case ShardFaultType::kStaleSnapshot:
      // Every record since the last snapshot is gone; recovery restarts
      // from the snapshot alone (or from scratch if none was taken).
      return TruncateJournalToRecords(journal, 0, error);
    case ShardFaultType::kNone:
    case ShardFaultType::kStall:
      break;
  }
  return true;
}

// The reference's own outcome capture: nothing restored, one finished
// entry kept per query. Shards keep theirs in their DurableCampaignRunner;
// this stays separate so the oracle shares no campaign-running code with
// the shards it checks, only the entry builder.
class CaptureRecorder : public CampaignRecorder {
 public:
  bool RestoreQueryResult(int64_t /*tick*/, size_t /*query_index*/,
                          CampaignTickResult* /*out*/) override {
    return false;
  }
  void OnQueryFinished(int64_t /*tick*/, size_t query_index,
                       const CampaignTickResult& result,
                       FederatedQueryResult outcome) override {
    entries[query_index] = MakeFinishedQueryEntry(
        static_cast<int64_t>(query_index), result, outcome);
  }
  bool RestoreRound(int64_t /*round_id*/,
                    const std::vector<int64_t>& /*cohort*/,
                    RoundOutcome* /*out*/) override {
    return false;
  }
  void OnRoundClosed(int64_t /*round_id*/,
                     const std::vector<int64_t>& /*cohort*/,
                     const RoundOutcome& /*outcome*/) override {}

  std::map<size_t, FinishedQueryEntry> entries;
};

}  // namespace

namespace {

// Threads for a tick's shard tasks: one per shard, capped by the CPUs in
// the process's affinity mask, so `taskset` bounds it.
int64_t ShardWorkers(int64_t shards) {
  return std::clamp<int64_t>(util::AffinityCpus(), 1, shards);
}

// Hands the heap's free pages back to the system. Each worker thread
// allocates from its own glibc arena, which neither reuses what other
// arenas freed nor returns what its own frees release. Trimming before a
// parallel phase keeps earlier garbage from stacking under the workers'
// transients, and trimming after it keeps their transients from stacking
// under what runs next (docs/SHARDING.md §4 has the measured peaks).
void ReleaseFreeHeap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// What one shard task leaves for the caller, which applies it in shard
// order after every task has finished.
struct ShardTask {
  // The task's order-dependent obs writes (obs/capture.h).
  obs::TaskCapture capture;
  // False on a durability violation, described in `error`.
  bool ok = true;
  std::string error;
  // The delivery loop's outcome: the decoded frame when delivered, and
  // whether a crash recovery came before the delivery.
  bool delivered = false;
  bool recovered = false;
  ShardTickFrame frame;
};

// Runs run(i, &tasks[i]) for every task on up to `workers` threads, the
// caller included (util::WorkerGroup), and returns once every task has
// finished and every thread is joined. With one worker the caller runs the
// tasks in order and starts no thread. When there is more than one task,
// each runs under its own obs capture, which the caller replays in task
// order; a lone task writes straight through, since nothing can reorder
// it. An exception a task throws is rethrown here, the lowest task's
// first.
template <typename Run>
void RunShardTasks(std::vector<ShardTask>* tasks, int64_t workers,
                   const Run& run) {
  const size_t count = tasks->size();
  const bool threaded = std::min(static_cast<size_t>(workers), count) > 1;
  if (threaded) ReleaseFreeHeap();
  std::exception_ptr failure;
  {
    util::WorkerGroup group(workers);
    try {
      group.Run(count, [&](size_t i) {
        ShardTask& task = (*tasks)[i];
        const obs::TaskCapture::Scope capture(count > 1 ? &task.capture
                                                        : nullptr);
        run(i, &task);
      });
    } catch (...) {
      failure = std::current_exception();
    }
  }
  if (threaded) ReleaseFreeHeap();
  if (failure != nullptr) std::rethrow_exception(failure);
}

// One shard's delivery loop for `tick`: the attempts, each retried at once
// after a stall or a crash, the injected faults, the collect, and the
// frame's trip through the wire codec. It touches no state outside its own
// shard.
bool DeliverShard(ShardCoordinator* coordinator,
                  const ShardedCampaignOptions& options, int64_t tick,
                  const obs::TraceContext& parent, ShardTask* out) {
  const int64_t s = coordinator->shard_index();
  const ShardFaultPlan* plan = options.fault_plan;
  if (plan != nullptr && plan->PermanentlyLost(s, tick)) return true;

  const int64_t recoveries_before = coordinator->metrics().recoveries;
  for (int64_t attempt = 0; attempt < options.max_attempts_per_tick;
       ++attempt) {
    if (attempt > 0) coordinator->NoteRetry();
    coordinator->NoteAttempt();

    const ShardFaultType fault = plan != nullptr
                                     ? plan->Decide(s, tick, attempt)
                                     : ShardFaultType::kNone;
    if (fault == ShardFaultType::kStall) {
      coordinator->NoteStall();
      continue;
    }

    ShardTickFrame frame;
    if (!coordinator->CollectTick(tick, &frame, &out->error, parent)) {
      return false;
    }
    if (fault == ShardFaultType::kNone) {
      // The frame crosses the wire codec even in-process: the merge
      // tier only ever consumes fail-closed-decoded bytes.
      std::vector<uint8_t> wire;
      EncodeShardTickFrame(frame, &wire);
      if (!DecodeShardTickFrame(wire, &out->frame)) {
        out->error = "shard tick frame rejected by the merge tier";
        return false;
      }
      out->delivered = true;
      out->recovered = coordinator->metrics().recoveries > recoveries_before;
      return true;
    }
    if (!ApplyShardSabotage(coordinator, *plan, fault, tick, attempt,
                            &out->error)) {
      return false;
    }
  }
  return true;
}

}  // namespace

ShardedCampaignRunner::ShardedCampaignRunner(
    std::vector<CampaignQuery> queries, MeterPolicy policy,
    ShardedCampaignOptions options)
    : queries_(std::move(queries)),
      policy_(policy),
      options_(std::move(options)) {
  BITPUSH_CHECK_GE(options_.shards, 1);
  BITPUSH_CHECK_GE(options_.max_attempts_per_tick, 1);
  workers_ = ShardWorkers(options_.shards);
  // The CPUs the shard tasks leave idle run the stage and apply steps of
  // each shard's rounds (federated/server.h).
  const int64_t round_workers =
      std::max<int64_t>(1, util::AffinityCpus() / workers_);
  for (CampaignQuery& query : queries_) {
    query.query.round_workers = round_workers;
  }
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

  const size_t shards = static_cast<size_t>(options_.shards);
  std::vector<ShardLoss> losses;
  std::vector<int64_t> delivered_shards;

  // Merge-tier tick span: the root of this tick's cross-shard trace. Its
  // context rides into every CollectTick (and from there across the frame
  // codec), so each shard's collect/harvest/recover spans render as
  // children of this span in the Chrome trace export.
  obs::Span merge_span("merge.tick", "merge");
  merge_span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  const obs::TraceContext merge_context = merge_span.context();

  // Every shard's delivery loop at once.
  std::vector<ShardTask> tasks(shards);
  RunShardTasks(&tasks, workers_, [&](size_t s, ShardTask* task) {
    task->ok = DeliverShard(coordinators_[s].get(), options_, tick,
                            merge_context, task);
  });

  // Then, in shard order, what a sequential tick does between shards: the
  // shard's obs writes, its frame into the merge, and its loss or recovery
  // event. After a failed shard only the obs writes are still applied.
  const std::string* failure = nullptr;
  for (size_t s = 0; s < shards; ++s) {
    ShardTask& task = tasks[s];
    ShardCoordinator* coordinator = coordinators_[s].get();
    task.capture.Replay();
    if (failure == nullptr && !task.ok) failure = &task.error;
    if (failure != nullptr) continue;
    if (task.delivered && merge_->AddFrame(task.frame)) {
      delivered_shards.push_back(static_cast<int64_t>(s));
      if (task.recovered) {
        obs::EventArgs args;
        args.tick = tick;
        args.shard = static_cast<int64_t>(s);
        args.detail = "delivered after crash recovery (replayed=" +
                      std::to_string(coordinator->metrics().replayed_records) +
                      ")";
        obs::EmitEvent(obs::EventType::kShardRecovered,
                       obs::Determinism::kVolatile, std::move(args));
      }
      continue;
    }
    ShardLoss loss;
    loss.shard = static_cast<int64_t>(s);
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
    args.shard = static_cast<int64_t>(s);
    args.detail = task.delivered ? "frame rejected by the merge tier"
                                 : "missed tick deadline";
    obs::EmitEvent(obs::EventType::kShardLost, obs::Determinism::kVolatile,
                   std::move(args));
  }
  if (failure != nullptr) {
    *error = *failure;
    return false;
  }

  MergedTickResult result = merge_->CloseTick(tick, losses);

  // Snapshots only after the merge consumed the tick, and only on the
  // shards that delivered it — a lost shard's undelivered journal suffix
  // must survive for its catch-up recovery.
  if (options_.snapshot_every_ticks > 0 &&
      (tick + 1) % options_.snapshot_every_ticks == 0) {
    std::vector<ShardTask> snapshots(delivered_shards.size());
    RunShardTasks(&snapshots, workers_, [&](size_t i, ShardTask* task) {
      task->ok = coordinators_[static_cast<size_t>(delivered_shards[i])]
                     ->Snapshot(&task->error);
    });
    for (ShardTask& task : snapshots) {
      task.capture.Replay();
      if (failure == nullptr && !task.ok) failure = &task.error;
    }
    if (failure != nullptr) {
      *error = *failure;
      return false;
    }
  }

  history_.push_back(result);
  ++next_tick_;
  *out = std::move(result);
  return true;
}

// bitpush-lint: allow(unreached-function): the single-coordinator reference of PropDifferentialTest.ShardedAndSingleCoordinatorAgreeBitForBit and ShardDeterminismTest.InMemoryShardsMatchReference
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
      state.recorder->entries.clear();
      const std::vector<CampaignTickResult> results = state.campaign->RunTick(
          tick, shard_populations, codecs, state.rng);

      // Emulate the fault-free shard-layer counters: one clean delivery
      // attempt per shard per tick.
      ++reference.metrics.ticks_completed;
      ++reference.metrics.shard_attempts;

      size_t result_index = 0;
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        if (!queries[qi].ScheduledAt(tick)) continue;
        BITPUSH_CHECK_LT(result_index, results.size());
        const CampaignTickResult& result = results[result_index++];
        const auto it = state.recorder->entries.find(qi);
        BITPUSH_CHECK(it != state.recorder->entries.end() &&
                      it->second.result == result);
        ShardQueryFrame row = MakeShardQueryFrame(
            static_cast<int64_t>(state.partitions[qi].size()), it->second);
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
      if (!queries[qi].ScheduledAt(tick)) continue;
      std::vector<const ShardQueryFrame*> delivered;
      delivered.reserve(static_cast<size_t>(shards));
      BitHistogram merged;
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
