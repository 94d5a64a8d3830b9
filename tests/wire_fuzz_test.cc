// Deterministic seeded fuzzing of the wire decode paths (federated/wire.h).
//
// The decoder's contract is binary: for ANY byte buffer it either returns a
// clean error (outputs untouched) or decodes a message that re-encodes to
// the exact bytes it consumed. The fuzzer drives 10k+ mutated buffers — bit
// flips, truncations, and length-field lies — through both batch decoders
// and checks that contract; everything is seeded, so a failure reproduces
// from the iteration index. This suite is what caught the non-finite
// rr_epsilon hole now rejected in DecodeBitRequest.

// bitpush-lint: allow(privacy-metering): fuzz corpus builds synthetic reports; no client value is behind them

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "federated/resilience.h"
#include "federated/shard/merge.h"
#include "federated/wire.h"
#include "prop/bitprop.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

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

std::vector<BitRequest> SampleRequests(Rng& rng) {
  std::vector<BitRequest> requests;
  const size_t count = 1 + rng.NextBelow(8);
  for (size_t i = 0; i < count; ++i) {
    BitRequest request;
    request.round_id = static_cast<int64_t>(rng.NextBelow(1000));
    request.value_id = static_cast<int64_t>(rng.NextBelow(1000));
    request.bit_index = static_cast<int>(rng.NextBelow(256));
    request.rr_epsilon = rng.NextDouble() * 8.0 - 4.0;
    requests.push_back(request);
  }
  return requests;
}

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

TEST(WireFuzzTest, ReportBatchDecodeNeverMisbehaves) {
  for (uint64_t iteration = 0; iteration < 10000; ++iteration) {
    Rng rng(0xF00D0000 + iteration);
    std::vector<uint8_t> buffer;
    EncodeReportBatch(SampleReports(rng), &buffer);
    Mutate(rng, &buffer);
    std::vector<BitReport> decoded;
    if (!DecodeReportBatch(buffer, &decoded)) continue;
    // Clean decode: every field is in the protocol domain, and re-encoding
    // reproduces the consumed prefix byte for byte.
    for (const BitReport& report : decoded) {
      ASSERT_TRUE(report.bit == 0 || report.bit == 1) << iteration;
      ASSERT_GE(report.bit_index, 0) << iteration;
      ASSERT_LT(report.bit_index, 256) << iteration;
    }
    std::vector<uint8_t> reencoded;
    EncodeReportBatch(decoded, &reencoded);
    ASSERT_LE(reencoded.size(), buffer.size()) << iteration;
    ASSERT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                           buffer.begin()))
        << "round-trip mismatch at iteration " << iteration;
  }
}

TEST(WireFuzzTest, RequestBatchDecodeNeverMisbehaves) {
  for (uint64_t iteration = 0; iteration < 10000; ++iteration) {
    Rng rng(0xBEEF0000 + iteration);
    std::vector<uint8_t> buffer;
    EncodeRequestBatch(SampleRequests(rng), &buffer);
    Mutate(rng, &buffer);
    std::vector<BitRequest> decoded;
    if (!DecodeRequestBatch(buffer, &decoded)) continue;
    for (const BitRequest& request : decoded) {
      // A non-finite epsilon must never survive decoding: it would crash
      // RandomizedResponse::FromEpsilon (NaN) or silently yield a NaN
      // probability (infinity) downstream.
      ASSERT_TRUE(std::isfinite(request.rr_epsilon)) << iteration;
      ASSERT_GE(request.bit_index, 0) << iteration;
      ASSERT_LT(request.bit_index, 256) << iteration;
    }
    std::vector<uint8_t> reencoded;
    EncodeRequestBatch(decoded, &reencoded);
    ASSERT_LE(reencoded.size(), buffer.size()) << iteration;
    ASSERT_TRUE(std::equal(reencoded.begin(), reencoded.end(),
                           buffer.begin()))
        << "round-trip mismatch at iteration " << iteration;
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

    size_t request_cursor = offset;
    BitRequest request;
    if (DecodeBitRequest(buffer, &request_cursor, &request)) {
      ASSERT_EQ(request_cursor, offset + kBitRequestWireSize) << iteration;
      ASSERT_TRUE(std::isfinite(request.rr_epsilon)) << iteration;
    } else {
      ASSERT_EQ(request_cursor, offset) << iteration;
    }
  }
}

TEST(WireFuzzTest, NonFiniteEpsilonIsRejected) {
  // Regression for the decode bug the fuzzer found: craft frames whose
  // epsilon field carries NaN or +/-infinity and check they are rejected
  // with the outputs untouched.
  const double bad_values[] = {
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::signaling_NaN(),
  };
  for (const double bad : bad_values) {
    BitRequest request;
    request.round_id = 7;
    request.value_id = 9;
    request.bit_index = 3;
    request.rr_epsilon = 1.0;
    std::vector<uint8_t> buffer;
    EncodeBitRequest(request, &buffer);
    // The epsilon occupies the final 8 bytes of the frame.
    const uint64_t bits = std::bit_cast<uint64_t>(bad);
    for (int i = 0; i < 8; ++i) {
      buffer[buffer.size() - 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(bits >> (8 * i));
    }
    size_t offset = 0;
    BitRequest out;
    out.rr_epsilon = -123.0;
    EXPECT_FALSE(DecodeBitRequest(buffer, &offset, &out));
    EXPECT_EQ(offset, 0u);
    EXPECT_DOUBLE_EQ(out.rr_epsilon, -123.0);
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
    stats.hedges_cancelled = static_cast<int64_t>(rng.NextBelow(1000));
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
// bitprop-driven structured mutations: instead of the uniform byte noise
// above, start from a valid frame and apply a seeded *plan* of field-level
// mutations (version bump, count-field lie, a corrupted field inside one
// message, truncation, a stray byte flip). This keeps the fuzzer in the
// near-valid region where parser bugs actually live, and a failing plan
// shrinks to the fewest mutations that still break the decode contract.

struct FrameMutation {
  int64_t kind = 0;  // see ApplyFrameMutation
  uint64_t arg = 0;  // seeded argument: position, lie value, flip mask

  friend bool operator==(const FrameMutation&, const FrameMutation&) = default;
};

prop::Domain<FrameMutation> FrameMutationDomain() {
  prop::Domain<FrameMutation> domain;
  domain.generate = [](Rng& rng) {
    FrameMutation m;
    m.kind = static_cast<int64_t>(rng.NextBelow(6));
    m.arg = rng.NextUint64();
    return m;
  };
  domain.shrink = [](const FrameMutation& m) {
    std::vector<FrameMutation> out;
    if (m.kind != 0) out.push_back(FrameMutation{0, m.arg});
    if (m.arg != 0) out.push_back(FrameMutation{m.kind, m.arg / 2});
    return out;
  };
  domain.describe = [](const FrameMutation& m) {
    return "(kind=" + std::to_string(m.kind) +
           " arg=" + std::to_string(m.arg) + ")";
  };
  return domain;
}

struct StructuredMutationCase {
  uint64_t corpus_seed = 0;
  std::vector<FrameMutation> mutations;
};

prop::Domain<StructuredMutationCase> StructuredMutationDomain() {
  prop::Domain<StructuredMutationCase> domain;
  const prop::Domain<std::vector<FrameMutation>> plans =
      prop::VectorOf(FrameMutationDomain(), 1, 6);
  domain.generate = [plans](Rng& rng) {
    StructuredMutationCase c;
    c.corpus_seed = rng.NextUint64();
    c.mutations = plans.generate(rng);
    return c;
  };
  domain.shrink = [plans](const StructuredMutationCase& c) {
    std::vector<StructuredMutationCase> out;
    for (std::vector<FrameMutation>& plan : plans.shrink(c.mutations)) {
      StructuredMutationCase smaller = c;
      smaller.mutations = std::move(plan);
      out.push_back(std::move(smaller));
    }
    return out;
  };
  domain.describe = [plans](const StructuredMutationCase& c) {
    return "{corpus_seed=" + std::to_string(c.corpus_seed) +
           " mutations=" + plans.Describe(c.mutations) + "}";
  };
  return domain;
}

// Batch frame layout: [version:1][count:4][messages...].
void ApplyFrameMutation(const FrameMutation& m, size_t message_size,
                        std::vector<uint8_t>* buffer) {
  if (buffer->empty()) return;
  switch (m.kind) {
    case 0:  // format-version bump: decoders must reject outright
      (*buffer)[0] = static_cast<uint8_t>((*buffer)[0] + 1 + m.arg % 254);
      break;
    case 1:
    case 2: {  // count-field lie: plausible (1) or wild (2)
      if (buffer->size() < 5) return;
      const uint32_t lie = m.kind == 1 ? static_cast<uint32_t>(m.arg % 64)
                                       : static_cast<uint32_t>(m.arg);
      for (int i = 0; i < 4; ++i) {
        (*buffer)[static_cast<size_t>(1 + i)] =
            static_cast<uint8_t>(lie >> (8 * i));
      }
      break;
    }
    case 3: {  // corrupt the last field byte of one message (near-valid)
      if (buffer->size() <= 5) return;
      const size_t messages = (buffer->size() - 5) / message_size;
      if (messages == 0) return;
      const size_t pos =
          5 + (m.arg % messages) * message_size + (message_size - 1);
      (*buffer)[pos] ^= static_cast<uint8_t>(1 + (m.arg >> 8) % 255);
      break;
    }
    case 4:  // truncate the tail
      buffer->resize(m.arg % (buffer->size() + 1));
      break;
    default:  // a single stray byte flip
      (*buffer)[m.arg % buffer->size()] ^=
          static_cast<uint8_t>(1 + (m.arg >> 8) % 255);
  }
}

TEST(WireFuzzPropTest, StructuredReportMutationsKeepTheDecodeContract) {
  prop::CheckOptions options;
  options.iterations = 2000;
  prop::CheckProperty<StructuredMutationCase>(
      "a report batch under field-level mutations either fails to decode or "
      "re-encodes to the consumed prefix with in-domain fields",
      StructuredMutationDomain(),
      [](const StructuredMutationCase& c) -> std::optional<std::string> {
        Rng rng(c.corpus_seed);
        std::vector<uint8_t> buffer;
        EncodeReportBatch(SampleReports(rng), &buffer);
        for (const FrameMutation& m : c.mutations) {
          ApplyFrameMutation(m, kBitReportWireSize, &buffer);
        }
        std::vector<BitReport> decoded;
        if (!DecodeReportBatch(buffer, &decoded)) return std::nullopt;
        for (const BitReport& report : decoded) {
          if (report.bit != 0 && report.bit != 1) {
            return std::string("decoded bit outside {0, 1}");
          }
          if (report.bit_index < 0 || report.bit_index >= 256) {
            return std::string("decoded bit_index outside the domain");
          }
        }
        std::vector<uint8_t> reencoded;
        EncodeReportBatch(decoded, &reencoded);
        if (reencoded.size() > buffer.size() ||
            !std::equal(reencoded.begin(), reencoded.end(), buffer.begin())) {
          return std::string("re-encode does not reproduce the consumed "
                             "prefix");
        }
        return std::nullopt;
      },
      options);
}

TEST(WireFuzzPropTest, StructuredRequestMutationsKeepTheDecodeContract) {
  prop::CheckOptions options;
  options.iterations = 2000;
  prop::CheckProperty<StructuredMutationCase>(
      "a request batch under field-level mutations either fails to decode or "
      "re-encodes to the consumed prefix with finite epsilon",
      StructuredMutationDomain(),
      [](const StructuredMutationCase& c) -> std::optional<std::string> {
        Rng rng(c.corpus_seed);
        std::vector<uint8_t> buffer;
        EncodeRequestBatch(SampleRequests(rng), &buffer);
        for (const FrameMutation& m : c.mutations) {
          ApplyFrameMutation(m, kBitRequestWireSize, &buffer);
        }
        std::vector<BitRequest> decoded;
        if (!DecodeRequestBatch(buffer, &decoded)) return std::nullopt;
        for (const BitRequest& request : decoded) {
          if (!std::isfinite(request.rr_epsilon)) {
            return std::string("a non-finite epsilon survived decoding");
          }
          if (request.bit_index < 0 || request.bit_index >= 256) {
            return std::string("decoded bit_index outside the domain");
          }
        }
        std::vector<uint8_t> reencoded;
        EncodeRequestBatch(decoded, &reencoded);
        if (reencoded.size() > buffer.size() ||
            !std::equal(reencoded.begin(), reencoded.end(), buffer.begin())) {
          return std::string("re-encode does not reproduce the consumed "
                             "prefix");
        }
        return std::nullopt;
      },
      options);
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

TEST(WireFuzzTest, ReportBatchVersionByteFailsClosed) {
  // The batch decoders share kWireFormatVersion; every other value must
  // be rejected outright (fail-closed version negotiation).
  Rng rng(0x1CEB00DA);
  std::vector<uint8_t> wire;
  EncodeReportBatch(SampleReports(rng), &wire);
  ASSERT_EQ(wire[0], kWireFormatVersion);
  std::vector<BitReport> out;
  for (int bump = 1; bump < 256; ++bump) {
    std::vector<uint8_t> bad = wire;
    bad[0] = static_cast<uint8_t>(kWireFormatVersion + bump);
    EXPECT_FALSE(DecodeReportBatch(bad, &out))
        << "version " << int{bad[0]} << " decoded";
  }
}

TEST(WireFuzzTest, EncodeRejectsNonFiniteEpsilonAtTheSource) {
  BitRequest request;
  request.rr_epsilon = std::numeric_limits<double>::quiet_NaN();
  std::vector<uint8_t> buffer;
  EXPECT_DEATH(EncodeBitRequest(request, &buffer), "finite");
}

}  // namespace
}  // namespace bitpush
