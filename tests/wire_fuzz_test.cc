// Deterministic seeded fuzzing of the wire decode paths: the report codec
// (federated/wire.h), the retry-stats frame (federated/resilience.h) and
// the shard tick frame (federated/shard/merge.h).
//
// The decoder's contract is binary: for ANY byte buffer it either returns a
// clean error (outputs untouched) or decodes a message that re-encodes to
// the exact bytes it consumed. The fuzzer drives thousands of mutated
// buffers — bit flips, truncations, and length-field lies — through the
// decoders and checks that contract; everything is seeded, so a failure
// reproduces from the iteration index.

// bitpush-lint: allow(privacy-metering): fuzz corpus builds synthetic reports; no client value is behind them

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "federated/resilience.h"
#include "federated/shard/merge.h"
#include "federated/wire.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

// Applies one seeded mutation: byte flips, a truncation, a length-field
// lie, or a stacked combination of them.
void Mutate(Rng& rng, std::vector<uint8_t>* buffer) {
  const uint64_t kind = rng.NextBelow(4);
  if (kind == 0 || kind == 3) {  // flip 1..8 bytes
    const uint64_t flips = 1 + rng.NextBelow(8);
    for (uint64_t k = 0; k < flips && !buffer->empty(); ++k) {
      const size_t pos = static_cast<size_t>(rng.NextBelow(buffer->size()));
      (*buffer)[pos] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
    }
  }
  if (kind == 1 || kind == 3) {  // truncate anywhere
    buffer->resize(static_cast<size_t>(rng.NextBelow(buffer->size() + 1)));
  }
  if (kind == 2 && buffer->size() >= 5) {  // lie in the length field
    uint32_t lie;
    if (rng.NextBit() == 0) {
      lie = static_cast<uint32_t>(rng.NextBelow(64));  // plausible count
    } else {
      lie = static_cast<uint32_t>(rng.NextUint64());  // wild count
    }
    // The count sits after the format-version byte.
    for (int i = 0; i < 4; ++i) {
      (*buffer)[static_cast<size_t>(1 + i)] =
          static_cast<uint8_t>(lie >> (8 * i));
    }
  }
}

std::vector<BitReport> SampleReports(Rng& rng) {
  std::vector<BitReport> reports;
  const size_t count = 1 + rng.NextBelow(8);
  for (size_t i = 0; i < count; ++i) {
    BitReport report;
    report.client_id = static_cast<int64_t>(rng.NextUint64() >> 1);
    report.bit_index = static_cast<int>(rng.NextBelow(256));
    report.bit = rng.NextBit();
    reports.push_back(report);
  }
  return reports;
}

TEST(WireFuzzTest, ReportBatchDecodeNeverMisbehaves) {
  // A run of reports in one buffer, mutated, then decoded report by report
  // until the decoder stops: every report it accepts is in the protocol
  // domain and re-encodes to exactly the bytes it consumed.
  for (uint64_t iteration = 0; iteration < 10000; ++iteration) {
    Rng rng(0xF00D0000 + iteration);
    std::vector<uint8_t> buffer;
    for (const BitReport& report : SampleReports(rng)) {
      EncodeBitReport(report, &buffer);
    }
    Mutate(rng, &buffer);
    size_t offset = 0;
    BitReport report;
    while (DecodeBitReport(buffer, &offset, &report)) {
      ASSERT_TRUE(report.bit == 0 || report.bit == 1) << iteration;
      ASSERT_GE(report.bit_index, 0) << iteration;
      ASSERT_LT(report.bit_index, 256) << iteration;
      std::vector<uint8_t> reencoded;
      EncodeBitReport(report, &reencoded);
      ASSERT_TRUE(std::equal(
          reencoded.begin(), reencoded.end(),
          buffer.begin() + static_cast<ptrdiff_t>(offset - reencoded.size())))
          << "round-trip mismatch at iteration " << iteration;
    }
  }
}

TEST(WireFuzzTest, SingleMessageDecodeFromRandomGarbage) {
  // Pure-noise buffers decoded at random offsets: never crash, never read
  // out of bounds, and on success the cursor advances exactly one message.
  for (uint64_t iteration = 0; iteration < 5000; ++iteration) {
    Rng rng(0xCAFE0000 + iteration);
    std::vector<uint8_t> buffer(rng.NextBelow(64));
    for (uint8_t& byte : buffer) {
      byte = static_cast<uint8_t>(rng.NextBelow(256));
    }
    const size_t offset = static_cast<size_t>(
        rng.NextBelow(buffer.size() + 8));  // may start past the end

    size_t report_cursor = offset;
    BitReport report;
    if (DecodeBitReport(buffer, &report_cursor, &report)) {
      ASSERT_EQ(report_cursor, offset + kBitReportWireSize) << iteration;
      ASSERT_TRUE(report.bit == 0 || report.bit == 1) << iteration;
    } else {
      ASSERT_EQ(report_cursor, offset) << iteration;
    }
  }
}

TEST(WireFuzzTest, RetryStatsFrameDecodeNeverMisbehaves) {
  // The counter block as kRoundClosed records and shard tick frames carry
  // it: an offset decoder, so a clean decode must re-encode to exactly the
  // bytes it consumed, and a rejected one must leave the offset alone.
  for (uint64_t iteration = 0; iteration < 10000; ++iteration) {
    Rng rng(0x57A70000 + iteration);
    RetryStats stats;
    stats.retries_scheduled = static_cast<int64_t>(rng.NextBelow(1000));
    stats.retransmits_requested = static_cast<int64_t>(rng.NextBelow(1000));
    stats.retry_reports_recovered = static_cast<int64_t>(rng.NextBelow(1000));
    stats.hedges_issued = static_cast<int64_t>(rng.NextBelow(1000));
    stats.hedge_reports = static_cast<int64_t>(rng.NextBelow(1000));
    stats.breaker_opens = static_cast<int64_t>(rng.NextBelow(100));
    stats.backoff_minutes = rng.NextDouble() * 500.0;
    stats.elapsed_minutes = rng.NextDouble() * 500.0;
    std::vector<uint8_t> buffer;
    EncodeRetryStats(stats, &buffer);
    Mutate(rng, &buffer);
    RetryStats decoded;
    size_t offset = 0;
    if (!DecodeRetryStats(buffer, &offset, &decoded)) {
      ASSERT_EQ(offset, 0u) << iteration;
      continue;
    }
    // Counters are non-negative and the minutes finite — a corrupted stats
    // block must never smuggle a negative count into an ops dashboard.
    ASSERT_GE(decoded.retries_scheduled, 0) << iteration;
    ASSERT_GE(decoded.hedges_issued, 0) << iteration;
    ASSERT_GE(decoded.breaker_opens, 0) << iteration;
    ASSERT_TRUE(std::isfinite(decoded.backoff_minutes)) << iteration;
    ASSERT_GE(decoded.backoff_minutes, 0.0) << iteration;
    ASSERT_TRUE(std::isfinite(decoded.elapsed_minutes)) << iteration;
    std::vector<uint8_t> reencoded;
    EncodeRetryStats(decoded, &reencoded);
    ASSERT_EQ(reencoded, std::vector<uint8_t>(
                             buffer.begin(),
                             buffer.begin() + static_cast<ptrdiff_t>(offset)))
        << "round-trip mismatch at " << iteration;
  }
}

// ---------------------------------------------------------------------------
// Shard -> merge hop (federated/shard/merge.h): the ShardTickFrame carries
// tallies, cumulative stats, and the trailing trace-context section, each
// of which must fail closed under the same mutation corpus.

ShardTickFrame SampleShardFrame(Rng& rng) {
  ShardTickFrame frame;
  frame.shard = static_cast<int64_t>(rng.NextBelow(8));
  frame.tick = static_cast<int64_t>(rng.NextBelow(64));
  const size_t queries = rng.NextBelow(3);
  for (size_t q = 0; q < queries; ++q) {
    ShardQueryFrame query;
    query.query_index = static_cast<int64_t>(q);
    query.partition_clients = static_cast<int64_t>(rng.NextBelow(64));
    query.result.tick = frame.tick;
    query.result.query_name = "metric" + std::to_string(q);
    query.result.status = static_cast<CampaignTickResult::Status>(
        rng.NextBelow(3));
    query.result.estimate = rng.NextDouble() * 8.0 - 4.0;
    query.result.reports = static_cast<int64_t>(rng.NextBelow(64));
    const size_t words = rng.NextBelow(4);
    for (size_t w = 0; w < words; ++w) {
      const int64_t total = static_cast<int64_t>(rng.NextBelow(32));
      query.tallies.totals.push_back(total);
      query.tallies.ones.push_back(
          static_cast<int64_t>(rng.NextBelow(static_cast<uint64_t>(total) + 1)));
    }
    frame.queries.push_back(std::move(query));
  }
  frame.retry.retries_scheduled = static_cast<int64_t>(rng.NextBelow(100));
  frame.retry.hedges_issued = static_cast<int64_t>(rng.NextBelow(100));
  frame.metrics.ticks_completed = static_cast<int64_t>(rng.NextBelow(64));
  frame.metrics.queries_ran = static_cast<int64_t>(rng.NextBelow(64));
  frame.metrics.recoveries = static_cast<int64_t>(rng.NextBelow(8));
  if (rng.NextBit() == 1) {  // tracing on for about half the corpus
    frame.trace_id = static_cast<int64_t>(1 + rng.NextBelow(1000));
    frame.span_id = static_cast<int64_t>(1 + rng.NextBelow(1000));
    frame.parent_span_id = static_cast<int64_t>(rng.NextBelow(1000));
  }
  return frame;
}

TEST(WireFuzzTest, ShardTickFrameDecodeNeverMisbehaves) {
  // Frame decoders are whole-buffer, so a clean decode must re-encode to
  // the exact mutated buffer — any accepted corruption is a finding.
  for (uint64_t iteration = 0; iteration < 5000; ++iteration) {
    Rng rng(0x5AAD0000 + iteration);
    std::vector<uint8_t> buffer;
    EncodeShardTickFrame(SampleShardFrame(rng), &buffer);
    Mutate(rng, &buffer);
    ShardTickFrame decoded;
    if (!DecodeShardTickFrame(buffer, &decoded)) continue;
    for (const ShardQueryFrame& query : decoded.queries) {
      ASSERT_GE(query.query_index, 0) << iteration;
      ASSERT_GE(query.partition_clients, 0) << iteration;
      ASSERT_EQ(query.tallies.totals.size(), query.tallies.ones.size())
          << iteration;
      for (size_t w = 0; w < query.tallies.totals.size(); ++w) {
        ASSERT_GE(query.tallies.ones[w], 0) << iteration;
        ASSERT_LE(query.tallies.ones[w], query.tallies.totals[w])
            << iteration;
      }
    }
    ASSERT_GE(decoded.trace_id, 0) << iteration;
    ASSERT_GE(decoded.span_id, 0) << iteration;
    ASSERT_GE(decoded.parent_span_id, 0) << iteration;
    std::vector<uint8_t> reencoded;
    EncodeShardTickFrame(decoded, &reencoded);
    ASSERT_EQ(reencoded, buffer) << "round-trip mismatch at " << iteration;
  }
}

TEST(WireFuzzTest, ShardMetricsDecodeNeverMisbehaves) {
  for (uint64_t iteration = 0; iteration < 5000; ++iteration) {
    Rng rng(0x3E7A0000 + iteration);
    ShardMetrics metrics;
    metrics.ticks_completed = static_cast<int64_t>(rng.NextBelow(1000));
    metrics.queries_ran = static_cast<int64_t>(rng.NextBelow(1000));
    metrics.queries_skipped = static_cast<int64_t>(rng.NextBelow(1000));
    metrics.reports_total = static_cast<int64_t>(rng.NextBelow(100000));
    metrics.shard_attempts = static_cast<int64_t>(rng.NextBelow(1000));
    metrics.shard_retries = static_cast<int64_t>(rng.NextBelow(1000));
    metrics.shard_stalls = static_cast<int64_t>(rng.NextBelow(100));
    metrics.recoveries = static_cast<int64_t>(rng.NextBelow(100));
    metrics.replayed_records = static_cast<int64_t>(rng.NextBelow(10000));
    metrics.torn_tails = static_cast<int64_t>(rng.NextBelow(100));
    metrics.lost_ticks = static_cast<int64_t>(rng.NextBelow(100));
    std::vector<uint8_t> buffer;
    EncodeShardMetrics(metrics, &buffer);
    Mutate(rng, &buffer);
    size_t offset = 0;
    ShardMetrics decoded;
    if (!DecodeShardMetrics(buffer, &offset, &decoded)) continue;
    // A corrupted metrics block must never smuggle a negative counter
    // into the merged ops rollup, and the consumed prefix re-encodes
    // byte for byte.
    ASSERT_GE(decoded.ticks_completed, 0) << iteration;
    ASSERT_GE(decoded.reports_total, 0) << iteration;
    ASSERT_GE(decoded.lost_ticks, 0) << iteration;
    std::vector<uint8_t> reencoded;
    EncodeShardMetrics(decoded, &reencoded);
    ASSERT_EQ(reencoded.size(), offset) << iteration;
    ASSERT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                           buffer.begin()))
        << "round-trip mismatch at iteration " << iteration;
  }
}

TEST(WireFuzzTest, ShardFrameVersionBytesFailClosed) {
  // Both version bytes in the shard frame — the leading
  // kWireFormatVersion and the trace-context sub-version
  // kTraceContextVersion — must reject every unknown value, not just the
  // adjacent one. The trace sub-version byte sits 25 bytes from the end
  // (1 version byte + 3 int64 ids).
  Rng rng(0xFEED5EED);
  ShardTickFrame frame = SampleShardFrame(rng);
  std::vector<uint8_t> wire;
  EncodeShardTickFrame(frame, &wire);
  ShardTickFrame out;
  ASSERT_TRUE(DecodeShardTickFrame(wire, &out));
  ASSERT_GE(wire.size(), 25u);
  const size_t trace_version_at = wire.size() - 25;
  for (int bump = 1; bump < 256; ++bump) {
    std::vector<uint8_t> bad_outer = wire;
    bad_outer[0] = static_cast<uint8_t>(kWireFormatVersion + bump);
    EXPECT_FALSE(DecodeShardTickFrame(bad_outer, &out))
        << "outer version " << int{bad_outer[0]} << " decoded";
    std::vector<uint8_t> bad_trace = wire;
    bad_trace.at(trace_version_at) =
        static_cast<uint8_t>(kTraceContextVersion + bump);
    if (bad_trace.at(trace_version_at) == kTraceContextVersion) continue;
    EXPECT_FALSE(DecodeShardTickFrame(bad_trace, &out))
        << "trace sub-version " << int{bad_trace.at(trace_version_at)}
        << " decoded";
  }
}

}  // namespace
}  // namespace bitpush
