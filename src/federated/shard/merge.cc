#include "federated/shard/merge.h"

// The merge tier combines tallies that each shard already metered against
// its own shard-local meter when the reports were collected; merging words
// discloses nothing new and must never charge a meter (bitpush_lint's
// privacy-metering check flags a charge here as double metering).

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/bit_probabilities.h"
#include "core/bit_pushing.h"
#include "federated/obs_hooks.h"
#include "federated/wire.h"
#include "ldp/randomized_response.h"
#include "obs/events.h"
#include "util/bytes.h"
#include "util/check.h"

namespace bitpush {
namespace {

void AppendMetricLine(const char* name, int64_t value, std::string* out) {
  out->append(name);
  out->push_back(' ');
  out->append(std::to_string(value));
  out->push_back('\n');
}

}  // namespace

void ShardMetrics::MergeFrom(const ShardMetrics& other) {
  ticks_completed += other.ticks_completed;
  queries_ran += other.queries_ran;
  queries_skipped += other.queries_skipped;
  reports_total += other.reports_total;
  shard_attempts += other.shard_attempts;
  shard_retries += other.shard_retries;
  shard_stalls += other.shard_stalls;
  recoveries += other.recoveries;
  replayed_records += other.replayed_records;
  torn_tails += other.torn_tails;
  lost_ticks += other.lost_ticks;
}

std::string ShardMetrics::ToSnapshot() const {
  std::string out;
  AppendMetricLine("shard_ticks_completed", ticks_completed, &out);
  AppendMetricLine("shard_queries_ran", queries_ran, &out);
  AppendMetricLine("shard_queries_skipped", queries_skipped, &out);
  AppendMetricLine("shard_reports_total", reports_total, &out);
  AppendMetricLine("shard_attempts", shard_attempts, &out);
  AppendMetricLine("shard_retries", shard_retries, &out);
  AppendMetricLine("shard_stalls", shard_stalls, &out);
  AppendMetricLine("shard_recoveries", recoveries, &out);
  AppendMetricLine("shard_replayed_records", replayed_records, &out);
  AppendMetricLine("shard_torn_tails", torn_tails, &out);
  AppendMetricLine("shard_lost_ticks", lost_ticks, &out);
  return out;
}

void EncodeShardMetrics(const ShardMetrics& metrics,
                        std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutInt64(metrics.ticks_completed, out);
  bytes::PutInt64(metrics.queries_ran, out);
  bytes::PutInt64(metrics.queries_skipped, out);
  bytes::PutInt64(metrics.reports_total, out);
  bytes::PutInt64(metrics.shard_attempts, out);
  bytes::PutInt64(metrics.shard_retries, out);
  bytes::PutInt64(metrics.shard_stalls, out);
  bytes::PutInt64(metrics.recoveries, out);
  bytes::PutInt64(metrics.replayed_records, out);
  bytes::PutInt64(metrics.torn_tails, out);
  bytes::PutInt64(metrics.lost_ticks, out);
}

bool DecodeShardMetrics(const std::vector<uint8_t>& buffer, size_t* offset,
                        ShardMetrics* out) {
  BITPUSH_CHECK(offset != nullptr);
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = *offset;
  ShardMetrics metrics;
  int64_t* const fields[] = {
      &metrics.ticks_completed, &metrics.queries_ran,
      &metrics.queries_skipped, &metrics.reports_total,
      &metrics.shard_attempts,  &metrics.shard_retries,
      &metrics.shard_stalls,    &metrics.recoveries,
      &metrics.replayed_records, &metrics.torn_tails,
      &metrics.lost_ticks};
  for (int64_t* field : fields) {
    if (!bytes::GetInt64(buffer, &cursor, field)) return false;
    if (*field < 0) return false;
  }
  *offset = cursor;
  *out = metrics;
  return true;
}

void EncodeShardTickFrame(const ShardTickFrame& frame,
                          std::vector<uint8_t>* out) {
  BITPUSH_CHECK(out != nullptr);
  bytes::PutByte(kWireFormatVersion, out);
  bytes::PutInt64(frame.shard, out);
  bytes::PutInt64(frame.tick, out);
  bytes::PutUint32(static_cast<uint32_t>(frame.queries.size()), out);
  for (const ShardQueryFrame& query : frame.queries) {
    bytes::PutInt64(query.query_index, out);
    bytes::PutInt64(query.partition_clients, out);
    EncodeCampaignTickResult(query.result, out);
    EncodeTallyBatch(query.tallies, out);
    EncodeFaultStats(query.faults, out);
  }
  EncodeRetryStats(frame.retry, out);
  EncodeShardMetrics(frame.metrics, out);
  bytes::PutByte(kTraceContextVersion, out);
  bytes::PutInt64(frame.trace_id, out);
  bytes::PutInt64(frame.span_id, out);
  bytes::PutInt64(frame.parent_span_id, out);
}

bool DecodeShardTickFrame(const std::vector<uint8_t>& buffer,
                          ShardTickFrame* out) {
  BITPUSH_CHECK(out != nullptr);
  size_t cursor = 0;
  uint8_t version = 0;
  if (!bytes::GetByte(buffer, &cursor, &version)) return false;
  if (version != kWireFormatVersion) return false;
  ShardTickFrame frame;
  if (!bytes::GetInt64(buffer, &cursor, &frame.shard)) return false;
  if (!bytes::GetInt64(buffer, &cursor, &frame.tick)) return false;
  if (frame.shard < 0 || frame.tick < 0) return false;
  uint32_t count = 0;
  if (!bytes::GetUint32(buffer, &cursor, &count)) return false;
  // A lied count must not drive the reserve below: every query frame
  // consumes many bytes, so the remaining buffer length is a safe bound.
  if (static_cast<size_t>(count) > buffer.size() - cursor) return false;
  frame.queries.reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    ShardQueryFrame query;
    if (!bytes::GetInt64(buffer, &cursor, &query.query_index)) return false;
    if (!bytes::GetInt64(buffer, &cursor, &query.partition_clients)) {
      return false;
    }
    if (query.query_index < 0 || query.partition_clients < 0) return false;
    if (!DecodeCampaignTickResult(buffer, &cursor, &query.result)) {
      return false;
    }
    if (!DecodeTallyBatch(buffer, &cursor, &query.tallies)) return false;
    if (!DecodeFaultStats(buffer, &cursor, &query.faults)) return false;
    frame.queries.push_back(std::move(query));
  }
  if (!DecodeRetryStats(buffer, &cursor, &frame.retry)) return false;
  if (!DecodeShardMetrics(buffer, &cursor, &frame.metrics)) return false;
  // Trace-context section: fail closed on a sub-version this decoder does
  // not know and on negative ids (zero means "tracing disabled").
  uint8_t trace_version = 0;
  if (!bytes::GetByte(buffer, &cursor, &trace_version)) return false;
  if (trace_version != kTraceContextVersion) return false;
  if (!bytes::GetInt64(buffer, &cursor, &frame.trace_id) ||
      !bytes::GetInt64(buffer, &cursor, &frame.span_id) ||
      !bytes::GetInt64(buffer, &cursor, &frame.parent_span_id)) {
    return false;
  }
  if (frame.trace_id < 0 || frame.span_id < 0 || frame.parent_span_id < 0) {
    return false;
  }
  if (cursor != buffer.size()) return false;  // trailing garbage
  *out = std::move(frame);
  return true;
}

MergedQueryResult FinalizeMergedQuery(
    const CampaignQuery& query, int64_t tick,
    const std::vector<const ShardQueryFrame*>& delivered,
    TallyBatch merged_tallies, int64_t clients_lost, int64_t shards_lost) {
  MergedQueryResult merged;
  merged.tick = tick;
  merged.query_name = query.name;
  merged.shards_merged = static_cast<int64_t>(delivered.size());
  merged.shards_lost = shards_lost;
  merged.clients_lost = clients_lost;
  merged.degraded = shards_lost > 0;
  merged.tallies = std::move(merged_tallies);

  // Partition-weighted estimate over the shards whose query ran, summed
  // in ascending shard order (the reference iterates identically).
  double weighted_sum = 0.0;
  double weight = 0.0;
  for (const ShardQueryFrame* frame : delivered) {
    merged.effective_clients += frame->partition_clients;
    merged.reports += frame->result.reports;
    if (frame->result.status == CampaignTickResult::Status::kRan) {
      ++merged.shards_ran;
      weighted_sum += static_cast<double>(frame->partition_clients) *
                      frame->result.estimate;
      weight += static_cast<double>(frame->partition_clients);
    }
  }
  merged.status = merged.shards_ran > 0 ? MergedQueryResult::Status::kRan
                                        : MergedQueryResult::Status::kSkipped;
  if (weight > 0.0) merged.estimate = weighted_sum / weight;

  // Pooled means and the variance bound at the merged (post-loss) n.
  int64_t n = 0;
  for (const int64_t total : merged.tallies.totals) n += total;
  if (merged.tallies.bits() > 0 && n > 0) {
    const RandomizedResponse rr =
        RandomizedResponse::FromEpsilon(query.query.adaptive.epsilon);
    merged.pooled_bit_means = merged.tallies.ToBitHistogram().UnbiasedMeans(rr);
    for (double& mean : merged.pooled_bit_means) {
      mean = std::clamp(mean, 0.0, 1.0);
    }
    std::vector<double> realized(merged.tallies.totals.size());
    for (size_t j = 0; j < realized.size(); ++j) {
      realized[j] = static_cast<double>(merged.tallies.totals[j]) /
                    static_cast<double>(n);
    }
    merged.variance_bound = VarianceBound(merged.pooled_bit_means, realized,
                                          static_cast<double>(n));
  }
  return merged;
}

MergeTier::MergeTier(std::vector<CampaignQuery> queries, int64_t shards,
                     double quorum_fraction)
    : queries_(std::move(queries)), shards_(shards) {
  BITPUSH_CHECK_GE(shards_, 1);
  BITPUSH_CHECK(quorum_fraction > 0.0 && quorum_fraction <= 1.0)
      << "quorum fraction out of (0,1]: " << quorum_fraction;
  const double min = quorum_fraction * static_cast<double>(shards_);
  quorum_min_ = static_cast<int64_t>(min);
  if (static_cast<double>(quorum_min_) < min) ++quorum_min_;  // ceil
  quorum_min_ = std::max<int64_t>(quorum_min_, 1);
  pending_.resize(static_cast<size_t>(shards_));
  pending_present_.assign(static_cast<size_t>(shards_), false);
  per_shard_retry_.resize(static_cast<size_t>(shards_));
  per_shard_metrics_.resize(static_cast<size_t>(shards_));
}

void MergeTier::AddFrame(const ShardTickFrame& frame) {
  BITPUSH_CHECK(frame.shard >= 0 && frame.shard < shards_)
      << "shard out of range: " << frame.shard;
  const size_t s = static_cast<size_t>(frame.shard);
  BITPUSH_CHECK(!pending_present_[s])
      << "duplicate frame for shard " << frame.shard;
  for (const ShardQueryFrame& query : frame.queries) {
    fault_stats_.MergeFrom(query.faults);
  }
  per_shard_retry_[s] = frame.retry;
  per_shard_metrics_[s] = frame.metrics;
  pending_[s] = frame;
  pending_present_[s] = true;
}

MergedTickResult MergeTier::CloseTick(int64_t tick,
                                      const std::vector<ShardLoss>& lost) {
  MergedTickResult result;
  result.tick = tick;
  result.shards_lost = static_cast<int64_t>(lost.size());

  std::vector<const ShardTickFrame*> delivered;
  for (int64_t s = 0; s < shards_; ++s) {
    if (!pending_present_[static_cast<size_t>(s)]) continue;
    const ShardTickFrame& frame = pending_[static_cast<size_t>(s)];
    BITPUSH_CHECK_EQ(frame.tick, tick) << "frame for a different tick";
    delivered.push_back(&frame);
  }
  result.shards_delivered = static_cast<int64_t>(delivered.size());
  result.quorum_failed = result.shards_delivered < quorum_min_;

  // The scheduled set is derived from the query list, not the frames, so
  // a tick with zero delivered shards still reports every scheduled query.
  for (size_t qi = 0; qi < queries_.size(); ++qi) {
    const CampaignQuery& query = queries_[qi];
    if (!query.ScheduledAt(tick)) continue;

    int64_t clients_lost = 0;
    for (const ShardLoss& loss : lost) {
      BITPUSH_CHECK_EQ(loss.clients_per_query.size(), queries_.size());
      clients_lost += loss.clients_per_query[qi];
    }

    std::vector<const ShardQueryFrame*> rows;
    for (const ShardTickFrame* frame : delivered) {
      const ShardQueryFrame* row = nullptr;
      for (const ShardQueryFrame& candidate : frame->queries) {
        if (candidate.query_index == static_cast<int64_t>(qi)) {
          row = &candidate;
          break;
        }
      }
      BITPUSH_CHECK(row != nullptr)
          << "shard " << frame->shard << " frame missing scheduled query "
          << qi;
      rows.push_back(row);
    }

    if (result.quorum_failed) {
      // Fail closed: below quorum nothing is published for the tick —
      // no estimate, no tallies — only the loss accounting.
      MergedQueryResult failed;
      failed.tick = tick;
      failed.query_name = query.name;
      failed.status = MergedQueryResult::Status::kFailedQuorum;
      failed.shards_merged = static_cast<int64_t>(rows.size());
      failed.shards_lost = result.shards_lost;
      failed.clients_lost = clients_lost;
      failed.degraded = true;
      result.queries.push_back(std::move(failed));
      continue;
    }

    // Word-level tally merge: skipped shards ship zero-width tallies and
    // contribute nothing; ran shards must agree on the width.
    TallyBatch merged;
    for (const ShardQueryFrame* row : rows) {
      if (row->tallies.bits() == 0) continue;
      if (merged.bits() == 0) {
        merged.totals.assign(row->tallies.totals.size(), 0);
        merged.ones.assign(row->tallies.ones.size(), 0);
      }
      AccumulateTallies(row->tallies, &merged);
    }
    result.queries.push_back(FinalizeMergedQuery(
        query, tick, rows, std::move(merged), clients_lost,
        result.shards_lost));
  }

  // Flight-recorder quorum event, kVolatile like every shard-layer signal:
  // the single-coordinator reference never exercises the merge tier, so
  // shard traffic must stay out of the stable ring the sharded-vs-single
  // oracle compares.
  if (result.quorum_failed || result.shards_lost > 0) {
    obs::EventArgs args;
    args.tick = tick;
    args.detail =
        std::string(result.quorum_failed ? "failed closed" : "degraded") +
        ": delivered=" + std::to_string(result.shards_delivered) + "/" +
        std::to_string(shards_) +
        " lost=" + std::to_string(result.shards_lost) +
        " quorum_min=" + std::to_string(quorum_min_);
    obs::EmitEvent(obs::EventType::kQuorumDegraded,
                   obs::Determinism::kVolatile, std::move(args));
  }
  ObserveShardTickMerged(result.shards_delivered, result.shards_lost,
                         result.quorum_failed);
  pending_present_.assign(static_cast<size_t>(shards_), false);
  return result;
}

RetryStats MergeTier::merged_retry_stats() const {
  RetryStats merged;
  for (const RetryStats& stats : per_shard_retry_) merged.MergeFrom(stats);
  return merged;
}

ShardMetrics MergeTier::merged_metrics() const {
  ShardMetrics merged;
  for (const ShardMetrics& metrics : per_shard_metrics_) {
    merged.MergeFrom(metrics);
  }
  return merged;
}

}  // namespace bitpush
