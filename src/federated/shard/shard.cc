#include "federated/shard/shard.h"

// bitpush-lint: allow(privacy-metering): the coordinator shard never
// fabricates reports — collection inside MeasurementCampaign /
// DurableCampaignRunner charges every report to this shard's local_meter()
// ledger; the harvest below only repackages already-metered tallies.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "batch/batch.h"
#include "core/bit_pushing.h"
#include "federated/server.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {
namespace {

// SplitMix64 finalizer (the faults.cc idiom): shard seeds are pure hashes
// of the root seed, so adding a shard never perturbs a sibling's stream.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool ReadFileBytes(const std::string& path, std::vector<uint8_t>* out,
                   bool* missing) {
  *missing = false;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    *missing = true;
    return false;
  }
  std::vector<uint8_t> data;
  uint8_t chunk[4096];
  size_t got = 0;
  while ((got = std::fread(chunk, 1, sizeof(chunk), file)) > 0) {
    data.insert(data.end(), chunk, chunk + got);
  }
  const bool ok = std::ferror(file) == 0;
  std::fclose(file);
  if (!ok) return false;
  *out = std::move(data);
  return true;
}

bool WriteFileBytes(const std::string& path,
                    const std::vector<uint8_t>& data, std::string* error) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    *error = "cannot open for write: " + path;
    return false;
  }
  const bool wrote =
      data.empty() ||
      std::fwrite(data.data(), 1, data.size(), file) == data.size();
  const bool closed = std::fclose(file) == 0;
  if (!wrote || !closed) {
    *error = "short write: " + path;
    return false;
  }
  return true;
}

// Byte offset of the sequence number inside a journal frame header:
// [version:1][type:1][seq:8]...
constexpr size_t kSeqOffset = 2;

void AccumulateRoundTallies(const RoundOutcome& round,
                            ShardQueryFrame* frame) {
  frame->faults.MergeFrom(round.faults);
  if (round.histogram.totals().empty()) return;  // round never tallied
  const TallyBatch tallies = TallyBatchFromBitHistogram(round.histogram);
  if (frame->tallies.bits() == 0) {
    frame->tallies.totals.assign(tallies.totals.size(), 0);
    frame->tallies.ones.assign(tallies.ones.size(), 0);
  }
  AccumulateTallies(tallies, &frame->tallies);
}

}  // namespace

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

bool ReadShardJournal(const std::string& path, JournalReadResult* out,
                      std::string* error) {
  BITPUSH_CHECK(out != nullptr);
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool missing = false;
  if (!ReadFileBytes(path, &data, &missing)) {
    if (missing) {
      // Same contract as ReadJournal: a journal that never existed is an
      // empty journal.
      *out = JournalReadResult{};
      return true;
    }
    *error = "cannot read journal: " + path;
    return false;
  }
  uint64_t first_seq = 0;
  if (data.size() >= kSeqOffset + 8) {
    size_t cursor = kSeqOffset;
    BITPUSH_CHECK(bytes::GetUint64(data, &cursor, &first_seq));
  }
  return ReadJournal(path, first_seq, out, error);
}

bool TruncateShardJournalToRecords(const std::string& path,
                                   size_t keep_records, std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  JournalReadResult journal;
  if (!ReadShardJournal(path, &journal, error)) return false;
  std::vector<uint8_t> prefix;
  const size_t keep = std::min(keep_records, journal.records.size());
  for (size_t i = 0; i < keep; ++i) {
    AppendJournalFrame(journal.records[i].type, journal.records[i].seq,
                       journal.records[i].payload, &prefix);
  }
  return WriteFileBytes(path, prefix, error);
}

bool TearShardJournalTail(const std::string& path, size_t bytes,
                          std::string* error) {
  BITPUSH_CHECK(error != nullptr);
  std::vector<uint8_t> data;
  bool missing = false;
  if (!ReadFileBytes(path, &data, &missing)) {
    *error = "cannot read journal: " + path;
    return false;
  }
  const size_t keep = data.size() > bytes ? data.size() - bytes : 0;
  data.resize(keep);
  return WriteFileBytes(path, data, error);
}

ShardQueryFrame MakeShardQueryFrame(int64_t query_index,
                                    int64_t partition_clients,
                                    const CampaignTickResult& result,
                                    const FederatedQueryResult& outcome) {
  ShardQueryFrame frame;
  frame.query_index = query_index;
  frame.partition_clients = partition_clients;
  frame.result = result;
  // Round-level sums only (not outcome.faults, which folds in the
  // query-level fallback counter) — the journal-scan path below can only
  // see rounds, and both paths must normalize identically.
  AccumulateRoundTallies(outcome.round1, &frame);
  AccumulateRoundTallies(outcome.round2, &frame);
  return frame;
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
  return options_.state_dir + "/journal.wal";
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
    BITPUSH_CHECK(runner->Open(error));
    runner_ = std::move(runner);
    return true;
  }
  // Stitched under the merge-tick span that triggered the (re)open, so a
  // crash-recovery replay shows up as a child of the tick that paid for it.
  obs::Span span("shard.recover", "shard");
  span.set_parent(parent);
  span.AddNumeric("shard", static_cast<double>(options_.shard_index));
  if (!runner->Open(error)) return false;
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

bool ShardCoordinator::HarvestFromJournal(int64_t tick, int64_t query_index,
                                          std::vector<RoundOutcome>* rounds,
                                          std::string* error) const {
  JournalReadResult journal;
  if (!ReadShardJournal(journal_path(), &journal, error)) return false;
  int64_t current_tick = -1;
  int64_t current_query = -1;
  for (const JournalRecord& record : journal.records) {
    switch (record.type) {
      case JournalRecordType::kQueryStarted: {
        QueryStartedRecord started;
        if (!DecodeQueryStartedRecord(record.payload, &started)) {
          *error = "corrupt kQueryStarted record in shard journal";
          return false;
        }
        current_tick = started.tick;
        current_query = started.query_index;
        break;
      }
      case JournalRecordType::kRoundClosed: {
        if (current_tick != tick || current_query != query_index) break;
        RoundClosedRecord closed;
        if (!DecodeRoundClosedRecord(record.payload, &closed)) {
          *error = "corrupt kRoundClosed record in shard journal";
          return false;
        }
        rounds->push_back(std::move(closed.outcome));
        break;
      }
      default:
        break;
    }
  }
  return true;
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
  const std::vector<const std::vector<Client>*> populations =
      PopulationPointers();
  for (int64_t t = next_tick(); t <= tick; ++t) {
    runner_->RunTick(t, populations, codecs_);
  }
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

  const MeasurementCampaign& campaign = runner_->campaign();

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

  size_t history_cursor = 0;
  // Count a tick's metrics once: a re-delivery attempt after a stall
  // harvests the same tick again without re-counting it.
  const bool counted = last_harvested_tick_ < tick;
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const CampaignQuery& query = queries_[qi];
    if (tick < query.phase ||
        (tick - query.phase) % query.cadence_ticks != 0) {
      continue;
    }
    // The campaign appends one history row per scheduled query per tick.
    const CampaignTickResult* result = nullptr;
    for (; history_cursor < campaign.history().size(); ++history_cursor) {
      const CampaignTickResult& row = campaign.history()[history_cursor];
      if (row.tick == tick && row.query_name == query.name) {
        result = &row;
        ++history_cursor;
        break;
      }
    }
    BITPUSH_CHECK(result != nullptr)
        << "no history row for scheduled query " << query.name << " at tick "
        << tick;

    ShardQueryFrame row;
    const auto& full = runner_->full_results();
    const auto it = full.find({tick, static_cast<int64_t>(qi)});
    if (it != full.end()) {
      row = MakeShardQueryFrame(static_cast<int64_t>(qi),
                                partition_clients(qi), *result, it->second);
    } else {
      // The tick was fully restored from the journal: its rounds (with
      // histograms, faults, retry) are still on disk, because snapshots
      // only happen after delivery. An in-memory shard re-executes every
      // tick live, so only a durable shard gets here.
      BITPUSH_CHECK(durable())
          << "in-memory shard missing outcome for query " << query.name;
      std::vector<RoundOutcome> rounds;
      if (!HarvestFromJournal(tick, static_cast<int64_t>(qi), &rounds,
                              error)) {
        return false;
      }
      row.query_index = static_cast<int64_t>(qi);
      row.partition_clients = partition_clients(qi);
      row.result = *result;
      for (const RoundOutcome& round : rounds) {
        AccumulateRoundTallies(round, &row);
      }
    }

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
  out.retry = campaign.retry_stats();
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
