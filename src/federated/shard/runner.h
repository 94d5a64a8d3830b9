// The driver of the two-tier topology: N ShardCoordinators under one
// MergeTier, with the robustness loop in between (docs/SHARDING.md).
//
// Per tick, per shard: delivery attempts with capped backoff on the
// simulated clock (RetrySchedule's hash-based jitter keyed by
// (tick, shard, attempt) — no RNG stream consumed), shard faults injected
// by the ShardFaultPlan between the shard and the frame hop, crash
// recovery through the shard's own journal, and — when the attempts or
// the tick budget run out — exact exclusion: the tick merges without the
// shard (degraded), or fails closed below quorum. A transiently lost
// shard catches up on the next tick; a permanently lost one is excluded
// from every later tick with its clients accounted.
//
// Every delivered frame crosses the wire codec (encode + fail-closed
// decode) even in-process, so the shard -> merge hop is exercised on the
// hot path, not just in tests.
//
// Threads: a tick runs every shard's delivery loop (attempts, collect,
// frame codec) as one task, and after the merge every delivered shard's
// snapshot as one task, on min(shards, CPUs in the process's affinity
// mask) threads, the caller included. A one-shard runner, or a process
// pinned to one CPU, runs its tasks inline and starts no thread. Shards
// share no state, so the tasks need no locks. The obs streams are the one
// exception: with more than one shard, each task captures its
// order-dependent obs writes (obs/capture.h), and the caller replays them
// in shard order, together with the merge, the loss accounting and the
// shard events, so a tick's results and stable obs streams are those of a
// sequential run. All threads are joined before RunTick returns, and a
// phase that starts threads trims the heap before and after it, so the
// workers' allocator arenas stay off the peak RSS.
//
// RunSingleCoordinatorReference is the oracle: the same deterministic
// partition executed inline with plain campaigns and scalar tally adds.
// A fault-free sharded run must match it bit for bit — estimates, merged
// results, per-shard meter ledgers, metrics.

#ifndef BITPUSH_FEDERATED_SHARD_RUNNER_H_
#define BITPUSH_FEDERATED_SHARD_RUNNER_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "core/privacy_meter.h"
#include "federated/campaign.h"
#include "federated/client.h"
#include "federated/resilience.h"
#include "federated/shard/merge.h"
#include "federated/shard/shard.h"
#include "federated/shard/shard_faults.h"

namespace bitpush {

struct ShardedCampaignOptions {
  int64_t shards = 1;
  // Root seed; shard s runs on ShardSeed(seed, s).
  uint64_t seed = 0;
  // Per-shard state lives in <state_root>/shard<N>; "" runs every shard
  // in-memory (no durability).
  std::string state_root;
  bool fsync = true;
  // Snapshot every delivered shard after this many closed ticks
  // (0 disables). Snapshots happen only after the merge consumed the
  // tick, so an undelivered tick's journal records always survive.
  int64_t snapshot_every_ticks = 0;
  // A tick publishes estimates only when at least
  // ceil(quorum_fraction * shards) shards delivered; below that it fails
  // closed (kFailedQuorum, no estimate).
  double quorum_fraction = 0.5;
  // Delivery attempts per shard per tick, with capped backoff between
  // attempts on the simulated clock.
  int64_t max_attempts_per_tick = 4;
  double attempt_cost_minutes = 1.0;
  double stall_cost_minutes = 8.0;
  // Simulated-minutes deadline for one shard's tick; an attempt that
  // cannot finish inside it is not started. Infinite by default.
  double tick_budget_minutes = std::numeric_limits<double>::infinity();
  // base/cap of the inter-attempt backoff (RetryPolicy's
  // base_backoff_minutes / cap_backoff_minutes).
  RetryPolicy backoff;
  // Shard-level chaos; nullptr runs clean. Not owned.
  const ShardFaultPlan* fault_plan = nullptr;
  // Forwarded to every shard's campaign (federated/resilience.h).
  ResilienceConfig resilience;
};

class ShardedCampaignRunner {
 public:
  ShardedCampaignRunner(std::vector<CampaignQuery> queries,
                        MeterPolicy policy, ShardedCampaignOptions options);

  // Partitions every query's population across the shards and binds the
  // coordinators. `populations` is indexed parallel to the query list.
  // Must be called once, before the first RunTick.
  void Open(const std::vector<const std::vector<Client>*>& populations,
            const std::vector<FixedPointCodec>& codecs);

  // Runs one merged tick. Returns false (with *error) only on a
  // durability violation that must fail closed — injected shard faults
  // and lost shards are handled, not errors. The error is that of the
  // lowest-index failing shard; since shards run concurrently, higher
  // shards may have finished their tick by then, but none of their frames
  // reached the merge. A false leaves the tick half merged: do not call
  // RunTick again.
  bool RunTick(int64_t tick, MergedTickResult* out, std::string* error);

  int64_t shards() const { return options_.shards; }
  ShardCoordinator* shard(int64_t s);
  const MergeTier& merge() const { return *merge_; }
  const std::vector<MergedTickResult>& history() const { return history_; }
  // Simulated minutes of the slowest shard for each closed tick (the
  // campaign makespan under perfect shard parallelism).
  const std::vector<double>& tick_makespan_minutes() const {
    return makespan_minutes_;
  }
  // Canonical bytes of shard s's local privacy ledger.
  std::vector<uint8_t> shard_meter_bytes(int64_t s) const;

 private:
  std::vector<CampaignQuery> queries_;
  MeterPolicy policy_;
  ShardedCampaignOptions options_;
  RetrySchedule backoff_;
  // Threads a tick's shard tasks run on, the caller included.
  int64_t workers_ = 1;
  std::vector<std::unique_ptr<ShardCoordinator>> coordinators_;
  std::unique_ptr<MergeTier> merge_;
  std::vector<MergedTickResult> history_;
  std::vector<double> makespan_minutes_;
  bool open_ = false;
  int64_t next_tick_ = 0;
};

// The single-coordinator inline execution of the same sharded campaign:
// identical partitions and per-shard seeds, plain MeasurementCampaigns,
// plain scalar tally accumulation (no journals, frames, or kernels), and
// the shared FinalizeMergedQuery arithmetic.
struct ReferenceCampaignResult {
  std::vector<MergedTickResult> ticks;
  // Canonical meter bytes per shard-local ledger.
  std::vector<std::vector<uint8_t>> shard_meter_bytes;
  // What a fault-free sharded run's merged metrics must equal: one clean
  // delivery attempt per shard per tick, no recoveries or losses.
  ShardMetrics metrics;
  RetryStats retry_stats;
};

ReferenceCampaignResult RunSingleCoordinatorReference(
    const std::vector<CampaignQuery>& queries, const MeterPolicy& policy,
    int64_t shards, uint64_t seed,
    const std::vector<const std::vector<Client>*>& populations,
    const std::vector<FixedPointCodec>& codecs, int64_t ticks,
    ResilienceConfig resilience = {});

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SHARD_RUNNER_H_
