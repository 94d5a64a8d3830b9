#include "federated/shard/shard.h"

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "persist/journal.h"
#include "rng/rng.h"
#include "util/check.h"

namespace bitpush {

uint64_t ShardSeed(uint64_t root_seed, int64_t shard_index) {
  BITPUSH_CHECK_GE(shard_index, 0);
  return Mix(root_seed ^ Mix(static_cast<uint64_t>(shard_index) + 1));
}

std::vector<std::vector<Client>> PartitionClients(
    const std::vector<Client>& population, int64_t shards) {
  BITPUSH_CHECK_GE(shards, 1);
  std::vector<std::vector<Client>> partitions(static_cast<size_t>(shards));
  for (auto& partition : partitions) {
    partition.reserve(population.size() / static_cast<size_t>(shards) + 1);
  }
  for (size_t i = 0; i < population.size(); ++i) {
    partitions[i % static_cast<size_t>(shards)].push_back(population[i]);
  }
  return partitions;
}

ShardQueryFrame MakeShardQueryFrame(int64_t partition_clients,
                                    const FinishedQueryEntry& entry) {
  return ShardQueryFrame{entry.query_index, partition_clients, entry.result,
                         entry.tallies, entry.faults};
}

ShardCoordinator::ShardCoordinator(std::vector<CampaignQuery> queries,
                                   MeterPolicy policy,
                                   ShardCoordinatorOptions options,
                                   ResilienceConfig resilience)
    : queries_(std::move(queries)),
      policy_(policy),
      options_(std::move(options)),
      resilience_(std::move(resilience)) {
  BITPUSH_CHECK_GE(options_.shard_index, 0);
}

void ShardCoordinator::Bind(std::vector<std::vector<Client>> partitions,
                            std::vector<FixedPointCodec> codecs) {
  BITPUSH_CHECK(!bound_) << "Bind() called twice";
  BITPUSH_CHECK_EQ(partitions.size(), queries_.size());
  BITPUSH_CHECK_EQ(codecs.size(), queries_.size());
  partitions_ = std::move(partitions);
  codecs_ = std::move(codecs);
  bound_ = true;
}

std::string ShardCoordinator::journal_path() const {
  BITPUSH_CHECK(durable());
  return JournalPath(options_.state_dir);
}

int64_t ShardCoordinator::partition_clients(size_t query_index) const {
  BITPUSH_CHECK(bound_);
  BITPUSH_CHECK_LT(query_index, partitions_.size());
  return static_cast<int64_t>(partitions_[query_index].size());
}

const PrivacyMeter* ShardCoordinator::local_meter() const {
  return runner_ != nullptr ? &runner_->meter() : nullptr;
}

bool ShardCoordinator::EnsureOpen(std::string* error,
                                  const obs::TraceContext& parent) {
  BITPUSH_CHECK(bound_) << "Bind() before CollectTick()";
  if (runner_ != nullptr) return true;
  DurableCampaignOptions runner_options;
  runner_options.state_dir = options_.state_dir;
  runner_options.seed = options_.seed;
  // The sharded runner snapshots manually, only after the merge tier has
  // consumed a tick — an automatic snapshot could swallow an undelivered
  // tick's journal records and leave nothing to harvest after a crash.
  runner_options.snapshot_every_ticks = 0;
  runner_options.fsync = options_.fsync;
  auto runner = std::make_unique<DurableCampaignRunner>(
      queries_, policy_, std::move(runner_options), resilience_);
  if (!durable()) {
    // An in-memory runner has nothing to recover; its Open cannot fail.
    BITPUSH_CHECK(runner->Open(PopulationPointers(), error));
    runner_ = std::move(runner);
    return true;
  }
  // Stitched under the merge-tick span that triggered the (re)open, so a
  // crash-recovery replay shows up as a child of the tick that paid for it.
  obs::Span span("shard.recover", "shard");
  span.set_parent(parent);
  span.AddNumeric("shard", static_cast<double>(options_.shard_index));
  if (!runner->Open(PopulationPointers(), error, span.context())) {
    return false;
  }
  const RecoveryInfo& info = runner->recovery_info();
  if (info.recovered) {
    ++metrics_.recoveries;
    metrics_.replayed_records += info.replayed_records;
    if (info.torn_tail) ++metrics_.torn_tails;
  }
  span.AddNumeric("replayed_records",
                  static_cast<double>(info.replayed_records));
  runner_ = std::move(runner);
  return true;
}

int64_t ShardCoordinator::next_tick() const {
  return runner_ != nullptr ? runner_->next_tick() : 0;
}

std::vector<const std::vector<Client>*> ShardCoordinator::PopulationPointers()
    const {
  std::vector<const std::vector<Client>*> populations;
  populations.reserve(partitions_.size());
  for (const std::vector<Client>& partition : partitions_) {
    populations.push_back(&partition);
  }
  return populations;
}

bool ShardCoordinator::CollectTick(int64_t tick, ShardTickFrame* frame,
                                   std::string* error,
                                   const obs::TraceContext& parent) {
  BITPUSH_CHECK(frame != nullptr);
  BITPUSH_CHECK(error != nullptr);
  BITPUSH_CHECK_GE(tick, 0);
  obs::Span span("shard.collect", "shard");
  span.set_parent(parent);
  span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  span.AddNumeric("shard", static_cast<double>(options_.shard_index));
  if (!EnsureOpen(error, span.context())) return false;

  // Catch up: a shard that crashed or lost ticks re-runs (or restores)
  // every tick from its durable position through `tick`, in order — both
  // the campaign's per-tick RNG forks and the durable runner require the
  // full sequence. Only `tick` itself is harvested.
  for (int64_t t = next_tick(); t <= tick; ++t) runner_->RunTick(t, codecs_);
  BITPUSH_CHECK_EQ(next_tick(), tick + 1)
      << "shard asked for an already-delivered tick";
  // Write-ahead rule: the frame carries tallies derived from the tick's
  // meter charges, so it may leave only once the journal records behind
  // it are durable. RunTick commits before it returns; a shard whose
  // journal still holds uncommitted records fails the tick instead.
  if (runner_->uncommitted_records() != 0) {
    *error = "shard " + std::to_string(options_.shard_index) + " tick " +
             std::to_string(tick) + ": " +
             std::to_string(runner_->uncommitted_records()) +
             " journal records not committed before the frame";
    return false;
  }

  // The harvest (per-query tally aggregation into the frame) is the
  // shard-side aggregate phase — its own child span under the collect.
  obs::Span harvest_span("shard.harvest", "shard");
  harvest_span.set_parent(span.context());
  harvest_span.set_ids(tick, /*query_index=*/-1, /*round_id=*/-1);
  harvest_span.AddNumeric("shard", static_cast<double>(options_.shard_index));

  ShardTickFrame out;
  out.shard = options_.shard_index;
  out.tick = tick;
  const obs::TraceContext context = span.context();
  out.trace_id = context.trace_id;
  out.span_id = context.span_id;
  out.parent_span_id = parent.valid() ? parent.span_id : 0;

  // Count a tick's metrics once: a re-delivery attempt after a stall
  // harvests the same tick again without re-counting it.
  const bool counted = last_harvested_tick_ < tick;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    if (!queries_[qi].ScheduledAt(tick)) continue;
    // RunTick ran or restored every scheduled query of the tick.
    const FinishedQueryEntry* entry = runner_->finished_query(tick, qi);
    BITPUSH_CHECK(entry != nullptr)
        << "no finished entry for scheduled query " << queries_[qi].name
        << " at tick " << tick;
    ShardQueryFrame row = MakeShardQueryFrame(partition_clients(qi), *entry);

    if (counted) {
      if (row.result.status == CampaignTickResult::Status::kRan) {
        ++metrics_.queries_ran;
      } else {
        ++metrics_.queries_skipped;
      }
      metrics_.reports_total += row.result.reports;
    }
    out.queries.push_back(std::move(row));
  }

  if (counted) {
    ++metrics_.ticks_completed;
    last_harvested_tick_ = tick;
  }
  out.retry = runner_->campaign().retry_stats();
  out.metrics = metrics_;
  *frame = std::move(out);
  return true;
}

bool ShardCoordinator::Snapshot(std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  if (!durable()) return true;
  if (!EnsureOpen(error)) return false;
  return runner_->Snapshot(error);
}

void ShardCoordinator::Restart() {
  runner_.reset();
  if (!durable()) ++metrics_.recoveries;  // durable shards count at Open()
}

}  // namespace bitpush
