// The shard-out acceptance suite (docs/SHARDING.md): sharded-vs-single
// determinism on fixed campaigns, the shard chaos matrix (crash at every
// journal record, torn tails, stale snapshots, stalls), degraded-merge
// loss accounting, and fail-closed behavior below quorum and on corrupt
// frames.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/client.h"
#include "federated/faults.h"
#include "federated/resilience.h"
#include "federated/shard/merge.h"
#include "federated/shard/runner.h"
#include "federated/shard/shard.h"
#include "federated/shard/shard_faults.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "rng/rng.h"
#include "util/bytes.h"

namespace bitpush {
namespace {

constexpr uint64_t kSeed = 4242;

struct ShardFixture {
  std::vector<Client> population;
  std::vector<CampaignQuery> queries;
  std::vector<FixedPointCodec> codecs;
  std::vector<const std::vector<Client>*> populations;
  MeterPolicy policy;
};

ShardFixture MakeFixture(int64_t clients, int bits, double epsilon,
                         int64_t ticks) {
  ShardFixture fixture;
  Rng rng(11);
  const double top = std::exp2(static_cast<double>(bits)) - 1.0;
  std::vector<double> values(static_cast<size_t>(clients));
  for (double& v : values) v = top * rng.NextDouble();
  fixture.population = MakePopulation(values, ClientConfig{});

  CampaignQuery query;
  query.name = "metric";
  query.value_id = 1;
  query.cadence_ticks = 1;
  query.query.adaptive.bits = bits;
  query.query.adaptive.epsilon = epsilon;
  fixture.queries.push_back(query);
  fixture.codecs = {FixedPointCodec::Integer(bits)};
  fixture.populations = {&fixture.population};

  // Generous caps: every tick can charge every client once.
  fixture.policy.max_bits_per_value = ticks + 1;
  fixture.policy.max_bits_per_client = 4 * (ticks + 1);
  fixture.policy.max_epsilon_per_client = 1e6;
  return fixture;
}

std::string FreshStateRoot(const std::string& tag) {
  const std::string root = ::testing::TempDir() + "/shard_" + tag;
  std::filesystem::remove_all(root);
  return root;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

ShardedCampaignOptions BaseOptions(int64_t shards) {
  ShardedCampaignOptions options;
  options.shards = shards;
  options.seed = kSeed;
  options.fsync = false;
  return options;
}

// Runs the sharded campaign and requires every tick to close cleanly.
std::vector<MergedTickResult> RunSharded(const ShardFixture& fixture,
                                         ShardedCampaignRunner* runner,
                                         int64_t ticks) {
  runner->Open(fixture.populations, fixture.codecs);
  std::vector<MergedTickResult> history;
  for (int64_t t = 0; t < ticks; ++t) {
    MergedTickResult result;
    std::string error;
    EXPECT_TRUE(runner->RunTick(t, &result, &error)) << error;
    history.push_back(std::move(result));
  }
  return history;
}

void ExpectTicksEqual(const std::vector<MergedTickResult>& sharded,
                      const std::vector<MergedTickResult>& reference) {
  ASSERT_EQ(sharded.size(), reference.size());
  for (size_t t = 0; t < sharded.size(); ++t) {
    EXPECT_EQ(sharded[t], reference[t]) << "tick " << t << " diverged";
  }
}

TEST(ShardPartitionTest, RoundRobinCoversEveryClientOnce) {
  const ShardFixture fixture = MakeFixture(53, 5, 0.0, 1);
  const auto partitions = PartitionClients(fixture.population, 4);
  ASSERT_EQ(partitions.size(), 4u);
  size_t total = 0;
  std::vector<int64_t> seen;
  for (const auto& partition : partitions) {
    total += partition.size();
    for (const Client& client : partition) seen.push_back(client.id());
  }
  EXPECT_EQ(total, fixture.population.size());
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end())
      << "a client landed in two shards";
  // Round-robin: client i sits at position i/4 of shard i%4.
  EXPECT_EQ(partitions[1][0].id(), fixture.population[1].id());
  EXPECT_EQ(partitions[0][1].id(), fixture.population[4].id());
}

TEST(ShardSeedTest, DerivedSeedsAreStableAndDistinct) {
  EXPECT_EQ(ShardSeed(kSeed, 3), ShardSeed(kSeed, 3));
  EXPECT_NE(ShardSeed(kSeed, 0), ShardSeed(kSeed, 1));
  EXPECT_NE(ShardSeed(kSeed, 0), ShardSeed(kSeed + 1, 0));
}

TEST(ShardFaultPlanTest, DecisionsArePureHashes) {
  ShardFaultRates rates;
  rates.crash_at_record = 0.3;
  rates.stall = 0.2;
  const ShardFaultPlan plan(7, rates);
  int faults = 0;
  for (int64_t tick = 0; tick < 50; ++tick) {
    const ShardFaultType first = plan.Decide(1, tick, 0);
    EXPECT_EQ(first, plan.Decide(1, tick, 0)) << "decision not pure";
    if (first != ShardFaultType::kNone) ++faults;
  }
  EXPECT_GT(faults, 5);
  EXPECT_LT(faults, 45);
  EXPECT_FALSE(ShardFaultPlan().enabled());
  EXPECT_LE(plan.CrashRecordIndex(0, 0, 0, 10), 10);
  const size_t torn = plan.TornTailBytes(0, 0, 0);
  EXPECT_GE(torn, 1u);
  EXPECT_LE(torn, 3u);
}

TEST(ShardFrameCodecTest, RoundTripsAndFailsClosed) {
  ShardTickFrame frame;
  frame.shard = 2;
  frame.tick = 5;
  ShardQueryFrame query;
  query.query_index = 0;
  query.partition_clients = 17;
  query.result.tick = 5;
  query.result.query_name = "metric";
  query.result.estimate = 3.25;
  query.result.reports = 12;
  query.tallies.totals = {6, 4, 2};
  query.tallies.ones = {3, 0, 2};
  frame.queries.push_back(query);
  frame.retry.retries_scheduled = 3;
  frame.metrics.ticks_completed = 6;

  std::vector<uint8_t> wire;
  EncodeShardTickFrame(frame, &wire);
  ShardTickFrame decoded;
  ASSERT_TRUE(DecodeShardTickFrame(wire, &decoded));
  EXPECT_EQ(decoded, frame);

  // Every strict prefix must be rejected, as must trailing garbage and a
  // wrong version byte.
  for (size_t len = 0; len < wire.size(); ++len) {
    const std::vector<uint8_t> prefix(wire.begin(),
                                      wire.begin() + static_cast<long>(len));
    ShardTickFrame out;
    EXPECT_FALSE(DecodeShardTickFrame(prefix, &out))
        << "prefix of " << len << " bytes decoded";
  }
  std::vector<uint8_t> padded = wire;
  padded.push_back(0);
  ShardTickFrame out;
  EXPECT_FALSE(DecodeShardTickFrame(padded, &out));
  std::vector<uint8_t> wrong_version = wire;
  wrong_version[0] ^= 0xFF;
  EXPECT_FALSE(DecodeShardTickFrame(wrong_version, &out));

  // Inconsistent tallies (ones > totals) must be rejected.
  ShardTickFrame bad = frame;
  bad.queries[0].tallies.ones[0] = bad.queries[0].tallies.totals[0] + 1;
  std::vector<uint8_t> bad_wire;
  EncodeShardTickFrame(bad, &bad_wire);
  EXPECT_FALSE(DecodeShardTickFrame(bad_wire, &out));
}

TEST(ShardFrameCodecTest, TraceContextSectionFailsClosed) {
  ShardTickFrame frame;
  frame.shard = 1;
  frame.tick = 0;
  frame.trace_id = 7001;
  frame.span_id = 7002;
  frame.parent_span_id = 7000;
  std::vector<uint8_t> wire;
  EncodeShardTickFrame(frame, &wire);
  ShardTickFrame decoded;
  ASSERT_TRUE(DecodeShardTickFrame(wire, &decoded));
  EXPECT_EQ(decoded.trace_id, 7001);
  EXPECT_EQ(decoded.span_id, 7002);
  EXPECT_EQ(decoded.parent_span_id, 7000);

  // The trace section is the trailing sub-version byte plus three int64
  // ids. An unknown sub-version must be rejected even though the outer
  // frame version matched.
  std::vector<uint8_t> bad_subversion = wire;
  bad_subversion[wire.size() - 25] ^= 0xFF;
  ShardTickFrame out;
  EXPECT_FALSE(DecodeShardTickFrame(bad_subversion, &out));

  // A frame cut off mid-trace-section must be rejected, not defaulted.
  std::vector<uint8_t> truncated = wire;
  truncated.resize(wire.size() - 8);
  EXPECT_FALSE(DecodeShardTickFrame(truncated, &out));

  // Negative ids never appear on a healthy wire (zero means "tracing
  // disabled"); each one fails closed.
  for (int field = 0; field < 3; ++field) {
    ShardTickFrame negative = frame;
    if (field == 0) negative.trace_id = -1;
    if (field == 1) negative.span_id = -1;
    if (field == 2) negative.parent_span_id = -1;
    std::vector<uint8_t> negative_wire;
    EncodeShardTickFrame(negative, &negative_wire);
    EXPECT_FALSE(DecodeShardTickFrame(negative_wire, &out))
        << "negative id field " << field << " decoded";
  }

  // All-zero context (tracing disabled) stays valid.
  ShardTickFrame disabled;
  disabled.shard = 0;
  disabled.tick = 0;
  std::vector<uint8_t> disabled_wire;
  EncodeShardTickFrame(disabled, &disabled_wire);
  EXPECT_TRUE(DecodeShardTickFrame(disabled_wire, &out));
  EXPECT_EQ(out.trace_id, 0);
}

// A frame as wire version 1 laid it out: its retry counters held the
// per-round retry cap's and the deadline budget's denials after
// retries_exhausted, and the cancelled hedges after hedges_issued.
std::vector<uint8_t> VersionOneFrame(const ShardTickFrame& frame) {
  std::vector<uint8_t> out;
  bytes::PutByte(1, &out);
  bytes::PutInt64(frame.shard, &out);
  bytes::PutInt64(frame.tick, &out);
  bytes::PutUint32(static_cast<uint32_t>(frame.queries.size()), &out);
  for (const ShardQueryFrame& query : frame.queries) {
    bytes::PutInt64(query.query_index, &out);
    bytes::PutInt64(query.partition_clients, &out);
    EncodeCampaignTickResult(query.result, &out);
    EncodeBitHistogram(query.tallies, &out);
    EncodeFaultStats(query.faults, &out);
  }
  const RetryStats& r = frame.retry;
  for (const int64_t counter :
       {r.retries_scheduled, r.retransmits_requested,
        r.retry_reports_recovered, r.retries_exhausted, int64_t{0},
        int64_t{0}, r.hedges_issued, int64_t{0}, r.hedge_reports,
        r.hedge_failures, r.hedge_dedup_drops, r.breaker_skips,
        r.breaker_probes, r.breaker_opens, r.breaker_closes}) {
    bytes::PutInt64(counter, &out);
  }
  bytes::PutDouble(r.backoff_minutes, &out);
  bytes::PutDouble(r.elapsed_minutes, &out);
  EncodeShardMetrics(frame.metrics, &out);
  bytes::PutByte(kTraceContextVersion, &out);
  bytes::PutInt64(frame.trace_id, &out);
  bytes::PutInt64(frame.span_id, &out);
  bytes::PutInt64(frame.parent_span_id, &out);
  return out;
}

TEST(ShardFrameCodecTest, VersionOneFrameFailsClosed) {
  ShardTickFrame frame;
  frame.shard = 1;
  frame.tick = 3;
  ShardQueryFrame query;
  query.partition_clients = 9;
  query.result.tick = 3;
  query.result.query_name = "metric";
  query.tallies.totals = {4, 5};
  query.tallies.ones = {1, 2};
  frame.queries.push_back(query);
  frame.retry.retries_scheduled = 2;
  frame.retry.hedges_issued = 1;
  std::vector<uint8_t> wire;
  EncodeShardTickFrame(frame, &wire);
  const std::vector<uint8_t> version1 = VersionOneFrame(frame);
  // Three counters more than today's layout.
  ASSERT_EQ(version1.size(), wire.size() + 3 * 8);
  ShardTickFrame out;
  EXPECT_FALSE(DecodeShardTickFrame(version1, &out));
  ASSERT_TRUE(DecodeShardTickFrame(wire, &out));
  EXPECT_EQ(out, frame);
}

// --------------------------------------------------------------------------
// The merge tier fails closed on a frame it cannot merge.

// Shard `shard`'s frame for `tick` of a one-query campaign: a row of
// `bits`-wide tallies over `clients` clients, through the wire codec.
ShardTickFrame DecodedFrame(int64_t shard, int64_t tick, int bits,
                            int64_t clients) {
  ShardTickFrame frame;
  frame.shard = shard;
  frame.tick = tick;
  ShardQueryFrame row;
  row.partition_clients = clients;
  row.result.tick = tick;
  row.result.query_name = "metric";
  row.result.estimate = 100.0;
  row.result.reports = clients;
  row.tallies.totals.assign(static_cast<size_t>(bits), 4);
  row.tallies.ones.assign(static_cast<size_t>(bits), 1);
  frame.queries.push_back(row);
  std::vector<uint8_t> wire;
  EncodeShardTickFrame(frame, &wire);
  ShardTickFrame decoded;
  EXPECT_TRUE(DecodeShardTickFrame(wire, &decoded));
  return decoded;
}

TEST(ShardMergeTierTest, FrameOfAnotherWidthCountsItsShardLost) {
  const ShardFixture fixture = MakeFixture(40, 8, 0.0, 1);
  MergeTier tier(fixture.queries, /*shards=*/2, /*quorum_fraction=*/0.5);
  // Both frames pass the codec (0 <= ones <= totals), but shard 1's
  // tallies are 7 bits wide for the 8-bit query. The tier keeps shard 0's
  // frame and rejects shard 1's, whose shard the caller counts as lost,
  // as ShardedCampaignRunner::RunTick does.
  const ShardTickFrame wide = DecodedFrame(0, 0, 8, 20);
  tier.AddFrame(wide);
  tier.AddFrame(DecodedFrame(1, 0, 7, 20));
  const MergedTickResult result =
      tier.CloseTick(0, {ShardLoss{/*shard=*/1, /*clients_per_query=*/{20}}});
  EXPECT_FALSE(result.quorum_failed);
  EXPECT_EQ(result.shards_delivered, 1);
  EXPECT_EQ(result.shards_lost, 1);
  ASSERT_EQ(result.queries.size(), 1u);
  const MergedQueryResult& merged = result.queries[0];
  EXPECT_EQ(merged.status, MergedQueryResult::Status::kRan);
  EXPECT_TRUE(merged.degraded);
  EXPECT_EQ(merged.shards_merged, 1);
  EXPECT_EQ(merged.shards_lost, 1);
  EXPECT_EQ(merged.clients_lost, 20);
  EXPECT_EQ(merged.effective_clients, 20);
  EXPECT_EQ(merged.tallies, wide.queries[0].tallies);
}

TEST(ShardMergeTierTest, RejectsFramesItCannotMerge) {
  // Two queries: "metric" every tick and "weekly" every other one.
  ShardFixture fixture = MakeFixture(40, 8, 0.0, 1);
  CampaignQuery weekly = fixture.queries[0];
  weekly.name = "weekly";
  weekly.cadence_ticks = 2;
  fixture.queries.push_back(weekly);
  MergeTier tier(fixture.queries, /*shards=*/4, /*quorum_fraction=*/0.25);

  // Tick 1 schedules "metric" alone. A frame missing it, repeating it,
  // naming "weekly", or naming a query past the list cannot be merged,
  // nor can one from a shard out of range.
  ShardTickFrame missing = DecodedFrame(0, 1, 8, 10);
  missing.queries.clear();
  EXPECT_FALSE(tier.AddFrame(missing));
  ShardTickFrame repeated = DecodedFrame(0, 1, 8, 10);
  repeated.queries.push_back(repeated.queries[0]);
  EXPECT_FALSE(tier.AddFrame(repeated));
  for (const int64_t query_index : {int64_t{1}, int64_t{2}}) {
    ShardTickFrame other = DecodedFrame(0, 1, 8, 10);
    other.queries[0].query_index = query_index;
    EXPECT_FALSE(tier.AddFrame(other)) << query_index;
  }
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(4, 1, 8, 10)));

  // A well-formed frame opens tick 1. A zero-width row (a cohort skip)
  // merges; a second frame from shard 0, or a frame for another tick, is
  // rejected.
  EXPECT_TRUE(tier.AddFrame(DecodedFrame(0, 1, 8, 10)));
  EXPECT_TRUE(tier.AddFrame(DecodedFrame(1, 1, 0, 10)));
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(0, 1, 8, 10)));
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(2, 2, 8, 10)));
  const MergedTickResult tick1 = tier.CloseTick(
      1, {ShardLoss{2, {10, 10}}, ShardLoss{3, {10, 10}}});
  EXPECT_EQ(tick1.shards_delivered, 2);
  ASSERT_EQ(tick1.queries.size(), 1u);
  EXPECT_EQ(tick1.queries[0].clients_lost, 20);
  EXPECT_EQ(tick1.queries[0].tallies.bits(), 8);

  // Tick 2 is open now: a frame of tick 1 or tick 3 is rejected, and a
  // tick-2 frame needs both queries' rows, in query order.
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(0, 1, 8, 10)));
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(0, 3, 8, 10)));
  EXPECT_FALSE(tier.AddFrame(DecodedFrame(0, 2, 8, 10)));
  ShardTickFrame both = DecodedFrame(0, 2, 8, 10);
  both.queries.push_back(both.queries[0]);
  both.queries[1].query_index = 1;
  ShardTickFrame swapped = both;
  std::swap(swapped.queries[0], swapped.queries[1]);
  EXPECT_FALSE(tier.AddFrame(swapped));
  EXPECT_TRUE(tier.AddFrame(both));
  const MergedTickResult tick2 = tier.CloseTick(2, {});
  EXPECT_EQ(tick2.shards_delivered, 1);
  EXPECT_EQ(tick2.queries.size(), 2u);
}

// --------------------------------------------------------------------------
// Sharded == single-coordinator reference, in-memory and durable.

TEST(ShardDeterminismTest, InMemoryShardsMatchReference) {
  constexpr int64_t kTicks = 3;
  const ShardFixture fixture = MakeFixture(120, 6, 1.0, kTicks);
  for (const int64_t shards : {1, 2, 4, 8}) {
    ShardedCampaignRunner runner(fixture.queries, fixture.policy,
                                 BaseOptions(shards));
    const auto sharded = RunSharded(fixture, &runner, kTicks);
    const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
        fixture.queries, fixture.policy, shards, kSeed, fixture.populations,
        fixture.codecs, kTicks);
    ExpectTicksEqual(sharded, reference.ticks);
    for (int64_t s = 0; s < shards; ++s) {
      EXPECT_EQ(runner.shard_meter_bytes(s),
                reference.shard_meter_bytes[static_cast<size_t>(s)])
          << "meter ledger of shard " << s << " diverged";
    }
    EXPECT_EQ(runner.merge().merged_metrics().ToSnapshot(),
              reference.metrics.ToSnapshot());
    EXPECT_EQ(runner.merge().merged_retry_stats(), reference.retry_stats);
  }
}

TEST(ShardDeterminismTest, DurableShardsMatchReferenceAndInMemory) {
  constexpr int64_t kTicks = 3;
  const ShardFixture fixture = MakeFixture(90, 5, 0.8, kTicks);
  const std::string root = FreshStateRoot("durable_ref");

  ShardedCampaignOptions durable_options = BaseOptions(2);
  durable_options.state_root = root;
  durable_options.snapshot_every_ticks = 2;
  ShardedCampaignRunner durable(fixture.queries, fixture.policy,
                                durable_options);
  const auto sharded = RunSharded(fixture, &durable, kTicks);

  ShardedCampaignRunner in_memory(fixture.queries, fixture.policy,
                                  BaseOptions(2));
  const auto memory_history = RunSharded(fixture, &in_memory, kTicks);

  const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
      fixture.queries, fixture.policy, 2, kSeed, fixture.populations,
      fixture.codecs, kTicks);

  ExpectTicksEqual(sharded, reference.ticks);
  ExpectTicksEqual(memory_history, reference.ticks);
  for (int64_t s = 0; s < 2; ++s) {
    EXPECT_EQ(durable.shard_meter_bytes(s),
              reference.shard_meter_bytes[static_cast<size_t>(s)]);
  }
  std::filesystem::remove_all(root);
}

TEST(ShardDeterminismTest, RepeatedShardedRunsAreBitIdentical) {
  constexpr int64_t kTicks = 2;
  const ShardFixture fixture = MakeFixture(80, 5, 1.5, kTicks);
  ShardedCampaignRunner first(fixture.queries, fixture.policy,
                              BaseOptions(4));
  ShardedCampaignRunner second(fixture.queries, fixture.policy,
                               BaseOptions(4));
  ExpectTicksEqual(RunSharded(fixture, &first, kTicks),
                   RunSharded(fixture, &second, kTicks));
}

// A tick's shards run on worker threads, yet its stable obs streams must be
// those of a sequential run. With faults, retries and the breaker on,
// every order-dependent instrument fires: last-writer gauges (the meter
// and breaker gauges), floating-point sums (the backoff gauge, the round
// minutes histogram) and the event ring's order and sequence numbers.
TEST(ShardDeterminismTest, ThreadedObsStreamsMatchReference) {
  constexpr int64_t kTicks = 3;
  ShardFixture fixture = MakeFixture(12000, 8, 1.0, kTicks);
  FaultRates rates;
  rates.mid_round_dropout = 0.3;
  rates.straggler = 0.1;
  const FaultPlan plan(17, rates);
  fixture.queries[0].query.fault_plan = &plan;
  fixture.queries[0].query.fault_policy.report_deadline_minutes = 30.0;
  ResilienceConfig resilience;
  resilience.seed = 5;
  resilience.retry.max_retries_per_client = 2;
  resilience.breaker.consecutive_failures_to_open = 1;
  resilience.breaker.cooldown_rounds = 1;

  const auto reset_obs = [] {
    obs::Registry::Default().Reset();
    obs::EventRecorder::Default().Reset();
  };
  // Room for every stable event of a run, so no event type is evicted.
  const size_t ring_capacity = obs::EventRecorder::Default().capacity();
  obs::EventRecorder::Default().SetCapacity(size_t{1} << 16);
  const auto stable_value = [](const std::string& name) {
    double value = 0.0;
    obs::Registry::Default().Visit(
        [&](const obs::InstrumentInfo& info, const obs::Counter*,
            const obs::Gauge* gauge, const obs::Histogram* histogram) {
          if (info.name != name) return;
          if (gauge != nullptr) value = gauge->value();
          if (histogram != nullptr) value = histogram->sum();
        });
    return value;
  };
  const auto stable_events = [](obs::EventType type) {
    int64_t count = 0;
    for (const obs::EventRecord& record :
         obs::EventRecorder::Default().Snapshot(obs::Determinism::kStable)) {
      if (record.type == type) ++count;
    }
    return count;
  };

  for (const int64_t shards : {4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    reset_obs();
    obs::SetEnabled(true);
    ShardedCampaignOptions options = BaseOptions(shards);
    options.resilience = resilience;
    ShardedCampaignRunner runner(fixture.queries, fixture.policy, options);
    const auto sharded = RunSharded(fixture, &runner, kTicks);
    const std::string sharded_metrics = obs::DeterministicMetricsSnapshot();
    const std::string sharded_events = obs::DeterministicEventsSnapshot();
    for (const char* name :
         {"bitpush_meter_bits_spent", "bitpush_meter_epsilon_spent",
          "bitpush_retry_backoff_minutes", "bitpush_round_sim_minutes",
          "bitpush_breaker_opens", "bitpush_breaker_tracked_clients"}) {
      EXPECT_GT(stable_value(name), 0.0) << name << " never fired";
    }
    for (const obs::EventType type :
         {obs::EventType::kRoundOutcome, obs::EventType::kRetryStorm,
          obs::EventType::kMeterCharge,
          obs::EventType::kBreakerTransition}) {
      EXPECT_GT(stable_events(type), 0)
          << obs::EventTypeName(type) << " never fired";
    }

    reset_obs();
    const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
        fixture.queries, fixture.policy, shards, kSeed, fixture.populations,
        fixture.codecs, kTicks, resilience);
    const std::string reference_metrics = obs::DeterministicMetricsSnapshot();
    const std::string reference_events = obs::DeterministicEventsSnapshot();
    obs::SetEnabled(false);
    reset_obs();

    ExpectTicksEqual(sharded, reference.ticks);
    EXPECT_EQ(sharded_metrics, reference_metrics);
    EXPECT_EQ(sharded_events, reference_events);
  }
  obs::EventRecorder::Default().SetCapacity(ring_capacity);
}

// --------------------------------------------------------------------------
// Satellite: kill any one shard at every journal record; the re-run merged
// history must match the clean run bit for bit.

TEST(ShardKillMatrixTest, KillAnyShardAtEveryRecordRecoversCleanMerge) {
  constexpr int64_t kTicks = 2;
  constexpr int64_t kShards = 2;
  const ShardFixture fixture = MakeFixture(40, 4, 1.0, kTicks);

  const std::string clean_root = FreshStateRoot("kill_clean");
  ShardedCampaignOptions options = BaseOptions(kShards);
  options.state_root = clean_root;
  ShardedCampaignRunner clean(fixture.queries, fixture.policy, options);
  const auto clean_history = RunSharded(fixture, &clean, kTicks);

  int64_t cuts = 0;
  for (int64_t victim = 0; victim < kShards; ++victim) {
    const std::string journal =
        clean_root + "/shard" + std::to_string(victim) + "/journal.wal";
    JournalReadResult contents;
    std::string error;
    ASSERT_TRUE(ReadJournalFromFirstFrame(journal, &contents, &error))
        << error;
    const int64_t records = static_cast<int64_t>(contents.records.size());
    ASSERT_GT(records, 0);

    for (int64_t keep = 0; keep <= records; ++keep) {
      // Clone the clean state, cut the victim's journal after `keep`
      // records (the crash point), and re-run the whole campaign against
      // the surviving state.
      const std::string root = FreshStateRoot("kill_case");
      std::filesystem::copy(clean_root, root,
                            std::filesystem::copy_options::recursive);
      const std::string cut_journal =
          root + "/shard" + std::to_string(victim) + "/journal.wal";
      ASSERT_TRUE(TruncateJournalToRecords(
          cut_journal, static_cast<size_t>(keep), &error))
          << error;

      ShardedCampaignOptions recovered_options = BaseOptions(kShards);
      recovered_options.state_root = root;
      ShardedCampaignRunner recovered(fixture.queries, fixture.policy,
                                      recovered_options);
      const auto history = RunSharded(fixture, &recovered, kTicks);
      ExpectTicksEqual(history, clean_history);
      // The victim re-appends exactly the records the cut lost.
      JournalReadResult rerun;
      ASSERT_TRUE(ReadJournalFromFirstFrame(cut_journal, &rerun, &error))
          << error;
      ASSERT_EQ(rerun.records.size(), contents.records.size()) << keep;
      for (size_t i = 0; i < rerun.records.size(); ++i) {
        ASSERT_EQ(rerun.records[i].seq, contents.records[i].seq) << keep;
        ASSERT_EQ(rerun.records[i].type, contents.records[i].type) << keep;
        ASSERT_EQ(rerun.records[i].payload, contents.records[i].payload)
            << keep;
      }
      ++cuts;
      std::filesystem::remove_all(root);
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << "first divergence at shard " << victim
                      << ", record cut " << keep;
        std::filesystem::remove_all(clean_root);
        return;
      }
    }
  }
  EXPECT_GT(cuts, 2 * kShards) << "matrix was vacuous";
  std::filesystem::remove_all(clean_root);
}

TEST(ShardRecoveryTest, SnapshottedTickIsHarvestedAgain) {
  // A snapshot truncates the delivered tick's rounds out of the journal,
  // but keeps the finished entries the harvest reads. Collecting that tick
  // again after a restart delivers the frame the first collect did, and
  // the snapshot that follows the re-delivery writes nothing.
  const ShardFixture fixture = MakeFixture(400, 7, 1.0, 1);
  const std::string root = FreshStateRoot("snapshotted_tick");
  ShardCoordinatorOptions options;
  options.seed = ShardSeed(kSeed, 0);
  options.state_dir = root;
  options.fsync = false;
  ShardCoordinator shard(fixture.queries, fixture.policy, options);
  shard.Bind({fixture.population}, fixture.codecs);

  ShardTickFrame first;
  std::string error;
  ASSERT_TRUE(shard.CollectTick(0, &first, &error)) << error;
  ASSERT_EQ(first.queries.size(), 1u);
  EXPECT_EQ(first.queries[0].tallies.bits(), 7);
  ASSERT_TRUE(shard.Snapshot(&error)) << error;
  const std::vector<uint8_t> snapshot = ReadFileBytes(root + "/snapshot.bin");
  const std::vector<uint8_t> journal = ReadFileBytes(root + "/journal.wal");
  ASSERT_FALSE(snapshot.empty());
  shard.Restart();

  ShardTickFrame again;
  ASSERT_TRUE(shard.CollectTick(0, &again, &error)) << error;
  ShardTickFrame expected = first;
  expected.metrics.recoveries = 1;  // the only count the restart moves
  EXPECT_EQ(again, expected);
  ASSERT_TRUE(shard.Snapshot(&error)) << error;
  EXPECT_EQ(ReadFileBytes(root + "/snapshot.bin"), snapshot);
  EXPECT_EQ(ReadFileBytes(root + "/journal.wal"), journal);
  std::filesystem::remove_all(root);
}

// --------------------------------------------------------------------------
// Chaos: every injectable shard fault, with retries, completes the
// campaign; fault-free ticks merge bit-identically to the reference.

void RunChaosCase(ShardFaultRates rates, const std::string& tag,
                  int64_t snapshot_every) {
  constexpr int64_t kTicks = 4;
  constexpr int64_t kShards = 2;
  const ShardFixture fixture = MakeFixture(60, 5, 1.0, kTicks);
  const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
      fixture.queries, fixture.policy, kShards, kSeed, fixture.populations,
      fixture.codecs, kTicks);

  const std::string root = FreshStateRoot("chaos_" + tag);
  const ShardFaultPlan plan(913, rates);
  ShardedCampaignOptions options = BaseOptions(kShards);
  options.state_root = root;
  options.snapshot_every_ticks = snapshot_every;
  options.max_attempts_per_tick = 6;
  options.fault_plan = &plan;
  ShardedCampaignRunner runner(fixture.queries, fixture.policy, options);
  const auto history = RunSharded(fixture, &runner, kTicks);

  int64_t attempts = 0;
  for (int64_t s = 0; s < kShards; ++s) {
    attempts += runner.shard(s)->metrics().shard_attempts;
  }
  EXPECT_GT(attempts, kTicks * kShards) << "no fault ever fired: " << tag;

  for (int64_t t = 0; t < kTicks; ++t) {
    if (history[static_cast<size_t>(t)].shards_lost == 0) {
      EXPECT_EQ(history[static_cast<size_t>(t)],
                reference.ticks[static_cast<size_t>(t)])
          << tag << ": fault-free tick " << t
          << " diverged from the reference";
    } else {
      EXPECT_FALSE(history[static_cast<size_t>(t)].quorum_failed);
    }
  }
  std::filesystem::remove_all(root);
}

TEST(ShardChaosTest, CrashAtRecordRecoversAndMergesClean) {
  ShardFaultRates rates;
  rates.crash_at_record = 0.5;
  RunChaosCase(rates, "crash", /*snapshot_every=*/0);
}

TEST(ShardChaosTest, TornJournalTailRecoversAndMergesClean) {
  ShardFaultRates rates;
  rates.torn_journal = 0.5;
  RunChaosCase(rates, "torn", /*snapshot_every=*/0);
}

TEST(ShardChaosTest, StaleSnapshotRecoversAndMergesClean) {
  ShardFaultRates rates;
  rates.stale_snapshot = 0.5;
  RunChaosCase(rates, "stale", /*snapshot_every=*/1);
}

TEST(ShardChaosTest, StalledShardRetriesWithinBudget) {
  ShardFaultRates rates;
  rates.stall = 0.4;
  RunChaosCase(rates, "stall", /*snapshot_every=*/0);
}

TEST(ShardChaosTest, MixedFaultsInMemoryShardsConverge) {
  constexpr int64_t kTicks = 4;
  const ShardFixture fixture = MakeFixture(60, 5, 1.0, kTicks);
  const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
      fixture.queries, fixture.policy, 3, kSeed, fixture.populations,
      fixture.codecs, kTicks);
  ShardFaultRates rates;
  rates.crash_at_record = 0.25;
  rates.stall = 0.25;
  const ShardFaultPlan plan(77, rates);
  ShardedCampaignOptions options = BaseOptions(3);
  options.max_attempts_per_tick = 6;
  options.fault_plan = &plan;
  ShardedCampaignRunner runner(fixture.queries, fixture.policy, options);
  const auto history = RunSharded(fixture, &runner, kTicks);
  for (int64_t t = 0; t < kTicks; ++t) {
    if (history[static_cast<size_t>(t)].shards_lost == 0) {
      EXPECT_EQ(history[static_cast<size_t>(t)],
                reference.ticks[static_cast<size_t>(t)]);
    }
  }
}

// --------------------------------------------------------------------------
// Degraded merge and quorum.

TEST(ShardDegradedMergeTest, LostShardIsExcludedWithExactAccounting) {
  constexpr int64_t kTicks = 3;
  constexpr int64_t kShards = 4;
  const ShardFixture fixture = MakeFixture(120, 6, 1.0, kTicks);
  const ReferenceCampaignResult reference = RunSingleCoordinatorReference(
      fixture.queries, fixture.policy, kShards, kSeed, fixture.populations,
      fixture.codecs, kTicks);

  ShardFaultPlan plan(0, ShardFaultRates{});
  plan.SetPermanentLoss(/*shard=*/2, /*from_tick=*/1);
  ShardedCampaignOptions options = BaseOptions(kShards);
  options.fault_plan = &plan;
  ShardedCampaignRunner runner(fixture.queries, fixture.policy, options);
  const auto history = RunSharded(fixture, &runner, kTicks);

  // Tick 0 is fault-free and exact.
  EXPECT_EQ(history[0], reference.ticks[0]);

  const int64_t lost_clients = 120 / kShards;
  for (int64_t t = 1; t < kTicks; ++t) {
    const MergedTickResult& tick = history[static_cast<size_t>(t)];
    const MergedTickResult& clean = reference.ticks[static_cast<size_t>(t)];
    EXPECT_FALSE(tick.quorum_failed);
    EXPECT_EQ(tick.shards_lost, 1);
    EXPECT_EQ(tick.shards_delivered, kShards - 1);
    ASSERT_EQ(tick.queries.size(), 1u);
    const MergedQueryResult& merged = tick.queries[0];
    const MergedQueryResult& clean_merged = clean.queries[0];
    EXPECT_EQ(merged.status, MergedQueryResult::Status::kRan);
    EXPECT_TRUE(merged.degraded);
    EXPECT_EQ(merged.shards_lost, 1);
    EXPECT_EQ(merged.clients_lost, lost_clients);
    EXPECT_EQ(merged.effective_clients, 120 - lost_clients);
    EXPECT_LT(merged.reports, clean_merged.reports);
    // Fewer reports -> a strictly wider variance bound.
    EXPECT_GT(merged.variance_bound, clean_merged.variance_bound);
    EXPECT_GT(merged.variance_bound, 0.0);
  }
}

TEST(ShardQuorumTest, BelowQuorumFailsClosed) {
  constexpr int64_t kTicks = 2;
  const ShardFixture fixture = MakeFixture(60, 5, 1.0, kTicks);
  ShardFaultPlan plan(0, ShardFaultRates{});
  plan.SetPermanentLoss(/*shard=*/1, /*from_tick=*/1);
  ShardedCampaignOptions options = BaseOptions(2);
  options.quorum_fraction = 1.0;  // both shards required
  options.fault_plan = &plan;
  ShardedCampaignRunner runner(fixture.queries, fixture.policy, options);
  const auto history = RunSharded(fixture, &runner, kTicks);

  EXPECT_FALSE(history[0].quorum_failed);
  const MergedTickResult& failed = history[1];
  EXPECT_TRUE(failed.quorum_failed);
  ASSERT_EQ(failed.queries.size(), 1u);
  EXPECT_EQ(failed.queries[0].status, MergedQueryResult::Status::kFailedQuorum);
  EXPECT_EQ(failed.queries[0].estimate, 0.0);
  EXPECT_EQ(failed.queries[0].tallies.bits(), 0);
  EXPECT_EQ(failed.queries[0].clients_lost, 30);
}

TEST(ShardMetricsTest, SnapshotIsCanonicalAndCodecRoundTrips) {
  ShardMetrics metrics;
  metrics.ticks_completed = 3;
  metrics.recoveries = 1;
  metrics.torn_tails = 2;
  const std::string snapshot = metrics.ToSnapshot();
  EXPECT_NE(snapshot.find("shard_ticks_completed 3\n"), std::string::npos);
  EXPECT_NE(snapshot.find("shard_torn_tails 2\n"), std::string::npos);

  std::vector<uint8_t> wire;
  EncodeShardMetrics(metrics, &wire);
  ShardMetrics decoded;
  size_t offset = 0;
  ASSERT_TRUE(DecodeShardMetrics(wire, &offset, &decoded));
  EXPECT_EQ(offset, wire.size());
  EXPECT_EQ(decoded, metrics);
}

}  // namespace
}  // namespace bitpush
