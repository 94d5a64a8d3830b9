// The merge tier of the multi-coordinator shard-out (docs/SHARDING.md).
//
// Bit tallies are exactly additive (the paper's one-bit sums compose
// across sub-populations), so the root of the two-tier topology never
// touches a report: each ShardCoordinator ships one ShardTickFrame — its
// per-query `BitHistogram` tallies, summarized tick results, cumulative
// RetryStats, and shard-layer ShardMetrics — and the MergeTier adds the
// tallies with `BitHistogram::Merge` (the dispatched `add_words` kernel),
// pools the bit means, and recomputes the variance bound at the merged n.
//
// Loss accounting is the point: when a shard misses its tick deadline the
// merge excludes it *exactly* — effective n shrinks by the shard's
// partition, `shards_lost`/`clients_lost` land on the result, and the
// variance bound is re-evaluated at the reduced n — instead of silently
// averaging a hole. Below quorum the tick fails closed: no estimate is
// published at all.
//
// Determinism contract: FinalizeMergedQuery is pure arithmetic shared by
// the sharded runner and the single-coordinator reference
// (shard/runner.h), so `sharded == reference` reduces to the shard
// machinery (partitioning, per-shard campaigns, journals, wire frames,
// kernel adds) producing the same inputs — which tests/prop/ asserts
// bit-for-bit.

#ifndef BITPUSH_FEDERATED_SHARD_MERGE_H_
#define BITPUSH_FEDERATED_SHARD_MERGE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/bit_pushing.h"
#include "federated/campaign.h"
#include "federated/faults.h"
#include "federated/resilience.h"

namespace bitpush {

// Shard-layer operational counters, carried cumulatively in every frame
// and summed across shards at the root. These count coordinator-side
// events (attempts, recoveries, replays), not protocol outcomes — the
// protocol counters live in CampaignTickResult/RetryStats/FaultStats.
struct ShardMetrics {
  int64_t ticks_completed = 0;
  int64_t queries_ran = 0;
  int64_t queries_skipped = 0;
  int64_t reports_total = 0;
  int64_t shard_attempts = 0;
  int64_t shard_retries = 0;
  int64_t shard_stalls = 0;
  int64_t recoveries = 0;
  int64_t replayed_records = 0;
  int64_t torn_tails = 0;
  int64_t lost_ticks = 0;

  void MergeFrom(const ShardMetrics& other);
  // Canonical "name value\n" lines in fixed order — the shard twin of
  // obs::DeterministicMetricsSnapshot, compared byte-for-byte by the
  // sharded-vs-single oracle.
  std::string ToSnapshot() const;

  friend bool operator==(const ShardMetrics&, const ShardMetrics&) = default;
};

void EncodeShardMetrics(const ShardMetrics& metrics,
                        std::vector<uint8_t>* out);
bool DecodeShardMetrics(const std::vector<uint8_t>& buffer, size_t* offset,
                        ShardMetrics* out);

// One scheduled query's contribution from one shard.
struct ShardQueryFrame {
  int64_t query_index = 0;
  // Clients in this shard's partition for the query (the merge weight and
  // the exact per-query loss if this shard goes dark).
  int64_t partition_clients = 0;
  CampaignTickResult result;
  // Round-1 + round-2 tallies pooled, zero-width when no round ran (a
  // cohort skip).
  BitHistogram tallies;
  // Round-level fault injections/reactions for this query this tick.
  FaultStats faults;

  friend bool operator==(const ShardQueryFrame&,
                         const ShardQueryFrame&) = default;
};

// Everything one shard ships to the merge tier for one tick.
struct ShardTickFrame {
  int64_t shard = 0;
  int64_t tick = 0;
  std::vector<ShardQueryFrame> queries;  // scheduled queries, in order
  RetryStats retry;                      // shard-cumulative
  ShardMetrics metrics;                  // shard-cumulative
  // Cross-shard trace context (obs/trace.h): the coordinates of the
  // shard's collect span for this tick — span_id under trace_id, parented
  // by the merge tier's tick span (parent_span_id) — so the root can
  // stitch per-shard work under its own span hierarchy in the Chrome
  // trace export. All zero when tracing is disabled; ids are never
  // negative.
  int64_t trace_id = 0;
  int64_t span_id = 0;
  int64_t parent_span_id = 0;

  friend bool operator==(const ShardTickFrame&,
                         const ShardTickFrame&) = default;
};

// Sub-version byte of the frame's trailing trace-context section. Bumped
// independently of kWireFormatVersion so the trace payload can evolve
// without invalidating the tally codec; decoders fail closed on any value
// they do not know.
inline constexpr uint8_t kTraceContextVersion = 1;

// Wire codec for the shard -> merge hop. Same contract as federated/wire:
// a leading format-version byte, fail-closed decoding (version, counts,
// tally consistency 0 <= ones <= totals, full-buffer consumption), and
// `*out` untouched on failure.
void EncodeShardTickFrame(const ShardTickFrame& frame,
                          std::vector<uint8_t>* out);
bool DecodeShardTickFrame(const std::vector<uint8_t>& buffer,
                          ShardTickFrame* out);

// One query's merged result at the root.
struct MergedQueryResult {
  // kRan: estimate valid. kSkipped: every delivered shard skipped (cohort
  // or budget). kFailedQuorum: too few shards delivered — fail closed, no
  // estimate.
  enum class Status : uint8_t { kRan, kSkipped, kFailedQuorum };

  int64_t tick = 0;
  std::string query_name;
  Status status = Status::kRan;
  // Partition-weighted mean of the delivered shard estimates.
  double estimate = 0.0;
  int64_t reports = 0;           // merged report count (the effective n)
  int64_t shards_merged = 0;     // frames that arrived
  int64_t shards_ran = 0;        // of those, shards whose query ran
  int64_t shards_lost = 0;
  int64_t effective_clients = 0;  // clients behind the delivered shards
  int64_t clients_lost = 0;       // clients behind the lost shards
  BitHistogram tallies;           // word-summed across delivered shards
  // Unbiased per-bit means from the merged tallies (clamped to [0,1]).
  std::vector<double> pooled_bit_means;
  // Plug-in variance bound at the merged n and realized allocation —
  // recomputed after loss, so a lost shard visibly widens it.
  double variance_bound = 0.0;
  bool degraded = false;  // at least one shard was lost this tick

  friend bool operator==(const MergedQueryResult&,
                         const MergedQueryResult&) = default;
};

struct MergedTickResult {
  int64_t tick = 0;
  bool quorum_failed = false;
  int64_t shards_delivered = 0;
  int64_t shards_lost = 0;
  std::vector<MergedQueryResult> queries;

  friend bool operator==(const MergedTickResult&,
                         const MergedTickResult&) = default;
};

// Loss accounting input for one lost shard: clients_per_query is indexed
// parallel to the campaign's full query list.
struct ShardLoss {
  int64_t shard = 0;
  std::vector<int64_t> clients_per_query;
};

// Pure merge arithmetic, shared by MergeTier and the single-coordinator
// reference so both compute bit-identical results. `delivered` holds the
// per-shard frames for this query in ascending shard order;
// `merged_tallies` is their tally sum (the caller chooses the adder — the
// kernel path or the scalar reference). epsilon is the query's
// randomized-response epsilon (<= 0 means disabled).
MergedQueryResult FinalizeMergedQuery(
    const CampaignQuery& query, int64_t tick,
    const std::vector<const ShardQueryFrame*>& delivered,
    BitHistogram merged_tallies, int64_t clients_lost, int64_t shards_lost);

// Accumulates delivered frames for one tick and closes it into a
// MergedTickResult. Keeps each shard's last-seen cumulative RetryStats and
// ShardMetrics, so the merged views sum every shard's latest totals once,
// and sums FaultStats across ticks.
class MergeTier {
 public:
  // CHECK-fails unless 1 <= shards and 0 < quorum_fraction <= 1.
  MergeTier(std::vector<CampaignQuery> queries, int64_t shards,
            double quorum_fraction);

  // Minimum delivered shards for a tick to publish estimates.
  int64_t quorum_min() const { return quorum_min_; }

  // Ingests one decoded frame for the open tick: the tick after the last
  // one closed, or before any is closed, the tick of the first frame
  // added. Returns false, and keeps nothing of the frame, when it cannot
  // be merged: its shard is out of range or already added, its tick is
  // not the open one, or its rows are not one per query scheduled at the
  // tick, in query order, each zero-width or as wide as the query's
  // adaptive.bits. The caller counts that shard as lost.
  bool AddFrame(const ShardTickFrame& frame);

  // Closes `tick`, which must be the open tick: merges the pending frames
  // (kernel word-adds), applies the loss accounting, and resets for the
  // next tick.
  MergedTickResult CloseTick(int64_t tick, const std::vector<ShardLoss>& lost);

  // Sum of the per-shard cumulative RetryStats (a shard that never
  // delivered contributes default stats).
  RetryStats merged_retry_stats() const;
  // Sum of the per-shard cumulative ShardMetrics.
  ShardMetrics merged_metrics() const;
  // Round-level fault counters summed over every merged frame.
  const FaultStats& fault_stats() const { return fault_stats_; }

 private:
  std::vector<CampaignQuery> queries_;
  int64_t shards_ = 1;
  int64_t quorum_min_ = 1;
  // The tick the pending frames are for; -1 until a frame or a close sets
  // it.
  int64_t open_tick_ = -1;
  std::vector<ShardTickFrame> pending_;
  std::vector<bool> pending_present_;
  std::vector<RetryStats> per_shard_retry_;
  std::vector<ShardMetrics> per_shard_metrics_;
  FaultStats fault_stats_;
};

}  // namespace bitpush

#endif  // BITPUSH_FEDERATED_SHARD_MERGE_H_
