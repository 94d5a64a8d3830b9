#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/alerts.h"
#include "obs/capture.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace bitpush {
namespace {

// Every test flips the global switches; restore the library default
// (everything off) so unrelated suites in this binary see a cold registry.
class ObsTest : public ::testing::Test {
 protected:
  ObsTest() {
    obs::Registry::Default().Reset();
    obs::Tracer::Default().Reset();
    obs::SetEnabled(true);
  }
  ~ObsTest() override {
    obs::SetEnabled(false);
    obs::SetTracingEnabled(false);
  }
};

TEST_F(ObsTest, CounterIsMonotonic) {
  obs::Counter* counter = obs::Registry::Default().GetCounter(
      "test_counter_total", "help", obs::Determinism::kStable);
  counter->Increment();
  counter->Add(4);
  counter->Add(-10);  // ignored: counters never regress
  counter->Add(0);
  EXPECT_EQ(counter->value(), 5);
}

TEST_F(ObsTest, GaugeSetAndAdd) {
  obs::Gauge* gauge = obs::Registry::Default().GetGauge(
      "test_gauge", "help", obs::Determinism::kStable);
  gauge->Set(2.5);
  gauge->Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge->value(), 1.5);
}

TEST_F(ObsTest, HistogramUsesLeBuckets) {
  obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "test_histogram", "help", {1.0, 2.0, 5.0}, obs::Determinism::kStable);
  histogram->Observe(0.5);   // le=1
  histogram->Observe(1.0);   // le=1 (less-or-equal)
  histogram->Observe(1.5);   // le=2
  histogram->Observe(100.0); // +Inf overflow
  EXPECT_EQ(histogram->bucket_value(0), 2);
  EXPECT_EQ(histogram->bucket_value(1), 1);
  EXPECT_EQ(histogram->bucket_value(2), 0);
  EXPECT_EQ(histogram->bucket_value(3), 1);
  EXPECT_EQ(histogram->count(), 4);
  EXPECT_DOUBLE_EQ(histogram->sum(), 103.0);
}

TEST_F(ObsTest, DisabledInstrumentsAreNoOps) {
  obs::Counter* counter = obs::Registry::Default().GetCounter(
      "test_disabled_total", "help", obs::Determinism::kStable);
  obs::Gauge* gauge = obs::Registry::Default().GetGauge(
      "test_disabled_gauge", "help", obs::Determinism::kStable);
  obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "test_disabled_histogram", "help", {1.0}, obs::Determinism::kStable);
  obs::SetEnabled(false);
  counter->Increment();
  gauge->Set(3.0);
  histogram->Observe(0.5);
  {
    const obs::ScopedTimer timer(histogram);
  }
  EXPECT_EQ(counter->value(), 0);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0);
}

TEST_F(ObsTest, RegistryReturnsSameInstrumentAndSurvivesReset) {
  obs::Registry& registry = obs::Registry::Default();
  obs::Counter* first = registry.GetCounter("test_cached_total", "help",
                                            obs::Determinism::kStable);
  obs::Counter* second = registry.GetCounter("test_cached_total", "help",
                                             obs::Determinism::kStable);
  EXPECT_EQ(first, second);
  first->Add(7);
  registry.Reset();
  // Reset zeroes values but keeps the instrument: cached pointers stay
  // valid and usable.
  EXPECT_EQ(first->value(), 0);
  first->Increment();
  EXPECT_EQ(second->value(), 1);
}

TEST_F(ObsTest, ScopedTimerObservesSeconds) {
  obs::Histogram* histogram = obs::Registry::Default().GetHistogram(
      "test_timer_seconds", "help", obs::LatencySecondsBounds(),
      obs::Determinism::kVolatile);
  {
    const obs::ScopedTimer timer(histogram);
  }
  EXPECT_EQ(histogram->count(), 1);
  EXPECT_GE(histogram->sum(), 0.0);
  EXPECT_LT(histogram->sum(), 10.0);
}

TEST_F(ObsTest, VisitIsNameOrdered) {
  obs::Registry registry;
  registry.GetCounter("b_total", "help", obs::Determinism::kStable);
  registry.GetGauge("a_gauge", "help", obs::Determinism::kVolatile);
  registry.GetHistogram("c_histogram", "help", {1.0},
                        obs::Determinism::kStable);
  std::vector<std::string> names;
  registry.Visit([&](const obs::InstrumentInfo& info, const obs::Counter*,
                     const obs::Gauge*, const obs::Histogram*) {
    names.push_back(info.name);
  });
  EXPECT_EQ(names,
            (std::vector<std::string>{"a_gauge", "b_total", "c_histogram"}));
  EXPECT_EQ(registry.size(), 3u);
}

TEST_F(ObsTest, PrometheusTextFormat) {
  obs::Registry registry;
  registry.GetCounter("demo_total", "Demo counter.",
                      obs::Determinism::kStable)->Add(3);
  registry.GetGauge("demo_gauge", "Demo gauge.", obs::Determinism::kVolatile)
      ->Set(1.5);
  obs::Histogram* histogram = registry.GetHistogram(
      "demo_seconds", "Demo histogram.", {1.0, 2.0},
      obs::Determinism::kStable);
  histogram->Observe(0.5);
  histogram->Observe(9.0);
  const std::string text = obs::PrometheusText(registry);
  EXPECT_NE(text.find("# HELP demo_total Demo counter.\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("demo_total{determinism=\"stable\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("demo_gauge{determinism=\"volatile\"} 1.5\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("demo_seconds_bucket{determinism=\"stable\",le=\"1\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find(
          "demo_seconds_bucket{determinism=\"stable\",le=\"+Inf\"} 2\n"),
      std::string::npos);
  EXPECT_NE(text.find("demo_seconds_count{determinism=\"stable\"} 2\n"),
            std::string::npos);
}

TEST_F(ObsTest, MetricsJsonlIsWellFormedPerLine) {
  obs::Registry registry;
  registry.GetCounter("demo_total", "Demo \"quoted\" help.",
                      obs::Determinism::kStable)->Add(2);
  registry.GetHistogram("demo_seconds", "Demo histogram.", {1.0},
                        obs::Determinism::kVolatile)->Observe(0.5);
  const std::string jsonl = obs::MetricsJsonl(registry);
  size_t lines = 0;
  size_t start = 0;
  while (start < jsonl.size()) {
    size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    std::string error;
    EXPECT_TRUE(obs::JsonIsWellFormed(line, &error)) << line << ": "
                                                     << error;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 2u);
  EXPECT_NE(jsonl.find("\"name\":\"demo_total\""), std::string::npos);
  EXPECT_NE(jsonl.find("Demo \\\"quoted\\\" help."), std::string::npos);
}

TEST_F(ObsTest, DeterministicSnapshotDropsVolatileInstruments) {
  obs::Registry registry;
  registry.GetCounter("stable_total", "help", obs::Determinism::kStable)
      ->Add(4);
  registry.GetCounter("volatile_total", "help", obs::Determinism::kVolatile)
      ->Add(9);
  const std::string snapshot = obs::DeterministicMetricsSnapshot(registry);
  EXPECT_NE(snapshot.find("# bitpush deterministic metrics snapshot v1"),
            std::string::npos);
  EXPECT_NE(snapshot.find("counter stable_total 4"), std::string::npos);
  EXPECT_EQ(snapshot.find("volatile_total"), std::string::npos);
}

TEST_F(ObsTest, JsonWellFormednessChecker) {
  std::string error;
  EXPECT_TRUE(obs::JsonIsWellFormed("{\"a\":[1,2.5,-3e2],\"b\":null}",
                                    &error));
  EXPECT_TRUE(obs::JsonIsWellFormed("\"esc \\\" \\u00e9\"", &error));
  EXPECT_FALSE(obs::JsonIsWellFormed("{\"a\":}", &error));
  EXPECT_FALSE(obs::JsonIsWellFormed("[1,2", &error));
  EXPECT_FALSE(obs::JsonIsWellFormed("{} trailing", &error));
  EXPECT_FALSE(obs::JsonIsWellFormed("", &error));
}

TEST_F(ObsTest, SpanRecordsIntoTracerAndExportsChromeJson) {
  obs::SetTracingEnabled(true);
  {
    obs::Span span("round", "federated");
    span.set_ids(3, 1, 2);
    span.set_sim_minutes(12.5);
    span.AddNumeric("responded", 40.0);
    span.AddString("source", "live");
  }
  EXPECT_EQ(obs::Tracer::Default().span_count(), 1);
  const std::vector<obs::SpanRecord> spans =
      obs::Tracer::Default().Snapshot();
  EXPECT_EQ(spans[0].name, "round");
  EXPECT_EQ(spans[0].tick, 3);
  EXPECT_EQ(spans[0].round_id, 2);
  EXPECT_TRUE(spans[0].has_sim_minutes);

  const std::string json = obs::ChromeTraceJson();
  std::string error;
  EXPECT_TRUE(obs::JsonIsWellFormed(json, &error)) << error;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"sim_minutes\":12.5"), std::string::npos);
  EXPECT_NE(json.find("\"source\":\"live\""), std::string::npos);
}

TEST_F(ObsTest, DisabledSpanIsInert) {
  {
    obs::Span span("round", "federated");
    EXPECT_FALSE(span.active());
    span.AddNumeric("ignored", 1.0);
  }
  EXPECT_EQ(obs::Tracer::Default().span_count(), 0);
  // An empty tracer still exports a valid (empty) trace document.
  std::string error;
  EXPECT_TRUE(obs::JsonIsWellFormed(obs::ChromeTraceJson(), &error))
      << error;
}

TEST_F(ObsTest, ConcurrentCountersDoNotDropIncrements) {
  obs::Counter* counter = obs::Registry::Default().GetCounter(
      "test_threads_total", "help", obs::Determinism::kStable);
  constexpr int kThreads = 8;
  constexpr int kIncrements = 10000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter] {
      for (int i = 0; i < kIncrements; ++i) counter->Increment();
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter->value(), kThreads * kIncrements);
}

// Two captured tasks, finished in the opposite order on two threads, are
// replayed in task order: the result equals running them one after the
// other on one thread.
TEST_F(ObsTest, TaskCaptureReplaysInTaskOrder) {
  obs::Registry& registry = obs::Registry::Default();
  obs::Gauge* last = registry.GetGauge("test_capture_last", "help",
                                       obs::Determinism::kStable);
  obs::Gauge* sum = registry.GetGauge("test_capture_sum", "help",
                                      obs::Determinism::kStable);
  obs::Histogram* histogram = registry.GetHistogram(
      "test_capture_histogram", "help", {1.0}, obs::Determinism::kStable);
  obs::EventRecorder& recorder = obs::EventRecorder::Default();
  recorder.Reset();
  const auto task = [&](int id) {
    for (int i = 0; i < 100; ++i) last->Set(id * 1000.0 + i);
    sum->Add(id == 0 ? 1e16 : 1.0);
    sum->Add(id == 0 ? -1e16 : 1.0);
    last->Set(id + 0.5);
    histogram->Observe(0.1 * id);
    obs::EventArgs args;
    args.shard = id;
    obs::EmitEvent(obs::EventType::kRoundOutcome, obs::Determinism::kStable,
                   std::move(args));
  };

  obs::TaskCapture captures[2];
  std::thread second([&] {
    const obs::TaskCapture::Scope scope(&captures[1]);
    task(1);
  });
  second.join();
  {
    const obs::TaskCapture::Scope scope(&captures[0]);
    task(0);
  }
  // Nothing applied yet.
  EXPECT_EQ(last->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0);
  EXPECT_EQ(recorder.emitted(obs::Determinism::kStable), 0);
  captures[0].Replay();
  captures[1].Replay();
  const std::string replayed =
      obs::DeterministicMetricsSnapshot() + obs::DeterministicEventsSnapshot();

  registry.Reset();
  recorder.Reset();
  task(0);
  task(1);
  EXPECT_EQ(replayed, obs::DeterministicMetricsSnapshot() +
                          obs::DeterministicEventsSnapshot());
  EXPECT_EQ(last->value(), 1.5);
  recorder.Reset();
}

TEST_F(ObsTest, WriteTextFileRoundTrips) {
  const std::string path = ::testing::TempDir() + "/obs_write_test.txt";
  std::string error;
  ASSERT_TRUE(obs::WriteTextFile(path, "hello\n", &error)) << error;
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[16] = {};
  const size_t read = std::fread(buffer, 1, sizeof(buffer), file);
  std::fclose(file);
  EXPECT_EQ(std::string(buffer, read), "hello\n");
  EXPECT_FALSE(
      obs::WriteTextFile("/nonexistent-dir/x.txt", "data", &error));
  EXPECT_FALSE(error.empty());
}

// --------------------------------------------------------------------------
// Flight recorder (obs/events.h). Local EventRecorder instances keep these
// cases independent of the process-wide Default() ring.

TEST_F(ObsTest, EventRingEvictsOldestAndCountsDrops) {
  obs::EventRecorder recorder;
  recorder.SetCapacity(4);
  for (int i = 0; i < 6; ++i) {
    obs::EventArgs args;
    args.tick = i;
    recorder.Emit(obs::EventType::kRoundOutcome, obs::Determinism::kStable,
                  std::move(args));
  }
  const std::vector<obs::EventRecord> stable =
      recorder.Snapshot(obs::Determinism::kStable);
  ASSERT_EQ(stable.size(), 4u);
  EXPECT_EQ(stable.front().seq, 2);  // seqs 0 and 1 were evicted
  EXPECT_EQ(stable.back().seq, 5);
  EXPECT_EQ(recorder.dropped(obs::Determinism::kStable), 2);
  EXPECT_EQ(recorder.emitted(obs::Determinism::kStable), 6);
  EXPECT_EQ(recorder.dropped(obs::Determinism::kVolatile), 0);
  recorder.Reset();
  EXPECT_TRUE(recorder.Snapshot(obs::Determinism::kStable).empty());
  EXPECT_EQ(recorder.emitted(obs::Determinism::kStable), 0);
}

TEST_F(ObsTest, VolatileSpamCannotEvictStableEvents) {
  obs::EventRecorder recorder;
  recorder.SetCapacity(2);
  obs::EventArgs stable_args;
  stable_args.tick = 0;
  recorder.Emit(obs::EventType::kMeterCharge, obs::Determinism::kStable,
                std::move(stable_args));
  for (int i = 0; i < 10; ++i) {
    recorder.Emit(obs::EventType::kReplayMilestone,
                  obs::Determinism::kVolatile, obs::EventArgs{});
  }
  // The stable ring is untouched by the volatile flood: separate rings,
  // separate sequence counters, separate eviction accounting.
  const std::vector<obs::EventRecord> stable =
      recorder.Snapshot(obs::Determinism::kStable);
  ASSERT_EQ(stable.size(), 1u);
  EXPECT_EQ(stable[0].seq, 0);
  EXPECT_EQ(recorder.dropped(obs::Determinism::kStable), 0);
  EXPECT_EQ(recorder.dropped(obs::Determinism::kVolatile), 8);
  EXPECT_EQ(recorder.Snapshot(obs::Determinism::kVolatile).size(), 2u);
}

TEST_F(ObsTest, EventsJsonlIsWellFormedPerLine) {
  obs::EventRecorder recorder;
  obs::EventArgs args;
  args.tick = 3;
  args.shard = 1;
  args.detail = "quote \" backslash \\ newline \n done";
  recorder.Emit(obs::EventType::kShardLost, obs::Determinism::kVolatile,
                std::move(args));
  obs::EventArgs charge;
  charge.tick = 0;
  charge.has_sim_minutes = true;
  charge.sim_minutes = 2.5;
  recorder.Emit(obs::EventType::kMeterCharge, obs::Determinism::kStable,
                std::move(charge));
  const std::string jsonl = obs::EventsJsonl(recorder);
  size_t lines = 0;
  std::istringstream stream(jsonl);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    ++lines;
    std::string error;
    EXPECT_TRUE(obs::JsonIsWellFormed(line, &error)) << line << ": " << error;
  }
  EXPECT_EQ(lines, 2u);
  // Stable ring first, escapes intact, coordinates present.
  EXPECT_NE(jsonl.find("\"type\":\"meter_charge\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"determinism\":\"stable\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"shard\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\\\""), std::string::npos);
  EXPECT_LT(jsonl.find("meter_charge"), jsonl.find("shard_lost"));
}

TEST_F(ObsTest, DeterministicEventsSnapshotDropsVolatileEvents) {
  obs::EventRecorder recorder;
  obs::EventArgs stable_args;
  stable_args.tick = 1;
  stable_args.detail = "value=0 first grant";
  recorder.Emit(obs::EventType::kMeterCharge, obs::Determinism::kStable,
                std::move(stable_args));
  obs::EventArgs volatile_args;
  volatile_args.detail = "replayed 120 records";
  recorder.Emit(obs::EventType::kReplayMilestone, obs::Determinism::kVolatile,
                std::move(volatile_args));
  const std::string snapshot = obs::DeterministicEventsSnapshot(recorder);
  EXPECT_EQ(snapshot.rfind("# bitpush deterministic events snapshot v1\n", 0),
            0u);
  EXPECT_NE(snapshot.find("meter_charge"), std::string::npos);
  EXPECT_EQ(snapshot.find("replay_milestone"), std::string::npos);
}

TEST_F(ObsTest, EmitEventIsANoOpWhenObsDisabled) {
  obs::EventRecorder::Default().Reset();
  obs::SetEnabled(false);
  obs::EmitEvent(obs::EventType::kRoundOutcome, obs::Determinism::kStable,
                 obs::EventArgs{});
  EXPECT_EQ(obs::EventRecorder::Default().emitted(obs::Determinism::kStable),
            0);
  obs::SetEnabled(true);
  obs::EmitEvent(obs::EventType::kRoundOutcome, obs::Determinism::kStable,
                 obs::EventArgs{});
  EXPECT_EQ(obs::EventRecorder::Default().emitted(obs::Determinism::kStable),
            1);
  obs::EventRecorder::Default().Reset();
}

// --------------------------------------------------------------------------
// Alert engine (obs/alerts.h). Inputs are cumulative; the engine differences
// them internally, so each case feeds a small cumulative trajectory.

TEST_F(ObsTest, BurnRateAlertFiresOnProjectionAndResolvesWhenIdle) {
  obs::AlertEngine engine;  // horizon: 2 ticks
  obs::CampaignAlertInputs inputs;
  inputs.bits_budget = 100;
  inputs.tick = 0;
  inputs.bits_spent = 50;  // 50/tick leaves tte = 1 tick <= horizon
  std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, obs::AlertRule::kPrivacyBurnRate);
  EXPECT_TRUE(transitions[0].fired);
  EXPECT_NE(transitions[0].detail.find("tte_ticks=1"), std::string::npos);
  EXPECT_TRUE(engine.firing(obs::AlertRule::kPrivacyBurnRate));

  inputs.tick = 1;  // no new spend, no denials: the burn stopped
  transitions = engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].fired);
  EXPECT_FALSE(engine.firing(obs::AlertRule::kPrivacyBurnRate));
  EXPECT_EQ(engine.fired_total(), 1);
  EXPECT_EQ(engine.resolved_total(), 1);
}

TEST_F(ObsTest, BurnRateAlertFiresImmediatelyOnDenial) {
  obs::AlertEngine engine;
  obs::CampaignAlertInputs inputs;
  inputs.bits_budget = 100;
  inputs.tick = 0;
  inputs.bits_spent = 10;  // tte = 9 ticks: comfortably outside the horizon
  EXPECT_TRUE(engine.EvaluateCampaignTick(inputs).empty());
  inputs.tick = 1;
  inputs.denied_charges = 1;  // the wall was hit regardless of projection
  const std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_TRUE(transitions[0].fired);
  EXPECT_NE(transitions[0].detail.find("budget exhausted"),
            std::string::npos);
}

TEST_F(ObsTest, RetryStormAlertTracksPerTickDelta) {
  obs::AlertEngine engine;  // threshold: 8 per tick
  obs::CampaignAlertInputs inputs;
  inputs.tick = 0;
  inputs.retries_scheduled = 3;
  EXPECT_TRUE(engine.EvaluateCampaignTick(inputs).empty());
  inputs.tick = 1;
  inputs.retries_scheduled = 15;  // delta 12 >= 8
  std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, obs::AlertRule::kRetryStorm);
  EXPECT_TRUE(transitions[0].fired);
  inputs.tick = 2;  // cumulative count unchanged: the storm passed
  transitions = engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].fired);
}

TEST_F(ObsTest, QuorumAtRiskAlertFiresAtTheMargin) {
  obs::AlertEngine engine;  // margin: 0
  obs::CampaignAlertInputs inputs;
  inputs.tick = 0;
  inputs.shards_total = 4;
  inputs.quorum_min = 3;
  inputs.shards_delivered = 3;  // exactly at quorum: no headroom left
  std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, obs::AlertRule::kShardQuorumAtRisk);
  EXPECT_TRUE(transitions[0].fired);
  inputs.tick = 1;
  inputs.shards_delivered = 4;  // full delivery restores headroom
  transitions = engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].fired);
  // shards_delivered = -1 (unsharded run) keeps the rule gated off.
  obs::AlertEngine unsharded;
  obs::CampaignAlertInputs single;
  single.tick = 0;
  EXPECT_TRUE(unsharded.EvaluateCampaignTick(single).empty());
}

TEST_F(ObsTest, JournalGrowthAlertFiresAtThresholdAndResolvesAfterTruncate) {
  obs::AlertConfig config;
  config.journal_growth_threshold = 1000;
  obs::AlertEngine engine(config);
  obs::CampaignAlertInputs inputs;
  inputs.tick = 0;
  inputs.journal_records = 400;
  EXPECT_TRUE(engine.EvaluateCampaignTick(inputs).empty());
  inputs.tick = 1;
  inputs.journal_records = 1200;
  std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, obs::AlertRule::kJournalGrowth);
  EXPECT_TRUE(transitions[0].fired);
  inputs.tick = 2;
  inputs.journal_records = 50;  // snapshot + truncate happened
  transitions = engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_FALSE(transitions[0].fired);
}

TEST_F(ObsTest, RecoveryDivergenceAlertLatchesForTheCampaign) {
  obs::AlertEngine engine;
  obs::CampaignAlertInputs inputs;
  inputs.tick = 0;
  inputs.recovery_divergence = true;
  const std::vector<obs::AlertTransition> transitions =
      engine.EvaluateCampaignTick(inputs);
  ASSERT_EQ(transitions.size(), 1u);
  EXPECT_EQ(transitions[0].rule, obs::AlertRule::kRecoveryDivergence);
  EXPECT_TRUE(transitions[0].fired);
  inputs.tick = 1;
  inputs.recovery_divergence = false;  // latched: never resolves
  EXPECT_TRUE(engine.EvaluateCampaignTick(inputs).empty());
  EXPECT_TRUE(engine.firing(obs::AlertRule::kRecoveryDivergence));
  engine.Reset();
  EXPECT_FALSE(engine.firing(obs::AlertRule::kRecoveryDivergence));
  EXPECT_EQ(engine.fired_total(), 0);
}

TEST_F(ObsTest, AlertEngineRefreshesStateGaugesAndTimelineIsStableOnly) {
  obs::Registry::Default().Reset();
  obs::AlertEngine engine;
  obs::CampaignAlertInputs inputs;
  inputs.tick = 0;
  inputs.bits_budget = 100;
  inputs.bits_spent = 60;          // kStable rule fires
  inputs.recovery_divergence = true;  // kVolatile rule fires
  engine.EvaluateCampaignTick(inputs);
  const std::string prom = obs::PrometheusText();
  EXPECT_NE(prom.find("bitpush_alert_state_privacy_burn_rate"),
            std::string::npos);
  const std::string timeline = obs::AlertTimelineText(engine);
  EXPECT_EQ(timeline.rfind("# bitpush alert timeline v1\n", 0), 0u);
  EXPECT_NE(timeline.find("tick=0 fired privacy_burn_rate"),
            std::string::npos);
  // The volatile recovery_divergence transition stays out of the
  // deterministic timeline.
  EXPECT_EQ(timeline.find("recovery_divergence"), std::string::npos);
}

}  // namespace
}  // namespace bitpush
