// Command-line driver: run any of the library's aggregation protocols over
// a synthetic or census workload without writing code.
//
//   bitpush_sim --task=mean --workload=census --n=10000 --epsilon=1
//   bitpush_sim --task=variance --workload=normal --mu=1000 --sigma=100
//   bitpush_sim --task=histogram --workload=exponential --buckets=16
//   bitpush_sim --task=plan --bits=8 --epsilon=1 --target_nrmse=0.02

#include <cstdio>
#include <string>
#include <vector>

#include "core/adaptive.h"
#include "persist/recovery.h"
#include "core/bit_probabilities.h"
#include "core/histogram_estimation.h"
#include "core/planner.h"
#include "core/proportion.h"
#include "core/range_tree.h"
#include "core/variance_estimation.h"
#include "data/census.h"
#include "federated/debugging.h"
#include "federated/shard/runner.h"
#include "data/file_source.h"
#include "data/synthetic.h"
#include "obs/alerts.h"
#include "obs/events.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "rng/rng.h"
#include "stats/repetition.h"
#include "util/flags.h"
#include "util/table.h"

namespace bitpush {
namespace {

Dataset MakeWorkload(const std::string& workload, const std::string& input,
                     int64_t n, double mu, double sigma, Rng& rng) {
  if (workload == "census") return CensusAges(n, rng);
  if (workload == "normal") return NormalData(n, mu, sigma, rng);
  if (workload == "uniform") return UniformData(n, 0.0, mu, rng);
  if (workload == "exponential") return ExponentialData(n, mu, rng);
  if (workload == "heavy_tail") return ParetoData(n, mu, 1.2, rng);
  if (workload == "file") {
    Dataset data;
    std::string error;
    if (!LoadDatasetFromFile(input, &data, &error)) {
      std::fprintf(stderr, "--workload=file: %s\n", error.c_str());
      std::exit(EXIT_FAILURE);
    }
    if (data.empty()) {
      std::fprintf(stderr, "--workload=file: %s holds no values\n",
                   input.c_str());
      std::exit(EXIT_FAILURE);
    }
    return data;
  }
  std::fprintf(stderr,
               "unknown --workload=%s (census, normal, uniform, "
               "exponential, heavy_tail, file)\n",
               workload.c_str());
  std::exit(EXIT_FAILURE);
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) ==
             0;
}

// Flushes the obs registry/tracer to the --metrics_out/--trace_out paths on
// scope exit, so every task path (including early returns) exports. The
// metrics format follows the extension: .prom -> Prometheus text, .jsonl /
// .json -> JSONL, .snapshot -> deterministic kStable snapshot. "-" writes
// to stdout. The trace is always Chrome trace-event JSON.
class ObsExporter {
 public:
  ObsExporter(std::string metrics_out, std::string trace_out,
              std::string events_out, std::string alerts_out)
      : metrics_out_(std::move(metrics_out)),
        trace_out_(std::move(trace_out)),
        events_out_(std::move(events_out)),
        alerts_out_(std::move(alerts_out)) {}

  ~ObsExporter() {
    std::string error;
    if (!metrics_out_.empty()) {
      std::string text;
      if (EndsWith(metrics_out_, ".snapshot")) {
        text = obs::DeterministicMetricsSnapshot();
      } else if (EndsWith(metrics_out_, ".jsonl") ||
                 EndsWith(metrics_out_, ".json")) {
        text = obs::MetricsJsonl();
      } else {
        text = obs::PrometheusText();
      }
      if (!obs::WriteTextFile(metrics_out_, text, &error)) {
        std::fprintf(stderr, "--metrics_out: %s\n", error.c_str());
      }
    }
    if (!trace_out_.empty() &&
        !obs::WriteTextFile(trace_out_, obs::ChromeTraceJson(), &error)) {
      std::fprintf(stderr, "--trace_out: %s\n", error.c_str());
    }
    if (!events_out_.empty()) {
      // .snapshot = stable ring only, byte-identical across crash-recovered
      // reruns; anything else = the full JSONL dump (both rings).
      const std::string text = EndsWith(events_out_, ".snapshot")
                                   ? obs::DeterministicEventsSnapshot()
                                   : obs::EventsJsonl();
      if (!obs::WriteTextFile(events_out_, text, &error)) {
        std::fprintf(stderr, "--events_out: %s\n", error.c_str());
      }
    }
    if (!alerts_out_.empty() &&
        !obs::WriteTextFile(alerts_out_, obs::AlertTimelineText(), &error)) {
      std::fprintf(stderr, "--alerts_out: %s\n", error.c_str());
    }
  }

 private:
  std::string metrics_out_;
  std::string trace_out_;
  std::string events_out_;
  std::string alerts_out_;
};

int Main(int argc, char** argv) {
  std::string task = "mean";
  std::string workload = "census";
  std::string input;
  int64_t n = 10000;
  int64_t bits = 8;
  int64_t reps = 100;
  int64_t buckets = 16;
  double mu = 1000.0;
  double sigma = 100.0;
  double epsilon = 0.0;
  double target_nrmse = 0.02;
  int64_t seed = 1;
  FlagSet flags;
  flags.AddString("task", &task,
                  "mean | variance | histogram | quantiles | proportion | "
                  "diagnose | plan | campaign");
  std::string state_dir;
  int64_t ticks = 7;
  int64_t snapshot_every = 0;
  int64_t crash_after_records = 0;
  flags.AddString("state_dir", &state_dir,
                  "durable state directory for --task=campaign (journal + "
                  "snapshots; required)");
  flags.AddInt64("ticks", &ticks, "campaign ticks for --task=campaign");
  flags.AddInt64("snapshot_every", &snapshot_every,
                 "snapshot cadence in ticks (0 = journal only)");
  flags.AddInt64("crash_after_records", &crash_after_records,
                 "crash harness: exit 137 after this many journal appends, "
                 "losing the ones not yet committed (0 = off)");
  int64_t shards = 1;
  flags.AddInt64("shards", &shards,
                 "coordinator shards for --task=campaign (1 = single "
                 "coordinator; N > 1 runs the sharded topology with "
                 "per-shard state under --state_dir)");
  double range_low = 0.0;
  double range_high = 0.0;
  flags.AddDouble("range_low", &range_low,
                  "lower bound for --task=proportion");
  flags.AddDouble("range_high", &range_high,
                  "upper bound for --task=proportion");
  flags.AddString("workload", &workload,
                  "census | normal | uniform | exponential | heavy_tail | "
                  "file");
  flags.AddString("input", &input,
                  "values file (one per line) for --workload=file");
  flags.AddInt64("n", &n, "number of clients");
  flags.AddInt64("bits", &bits, "bit depth b");
  flags.AddInt64("reps", &reps, "repetitions for error reporting");
  flags.AddInt64("buckets", &buckets, "histogram buckets");
  flags.AddDouble("mu", &mu, "workload location parameter");
  flags.AddDouble("sigma", &sigma, "workload scale parameter");
  flags.AddDouble("epsilon", &epsilon, "LDP epsilon (0 = off)");
  flags.AddDouble("target_nrmse", &target_nrmse, "accuracy target (plan)");
  flags.AddInt64("seed", &seed, "base seed");
  std::string metrics_out;
  std::string trace_out;
  flags.AddString("metrics_out", &metrics_out,
                  "write metrics on exit (.prom = Prometheus text, "
                  ".jsonl/.json = JSONL, .snapshot = deterministic "
                  "snapshot; - = stdout)");
  flags.AddString("trace_out", &trace_out,
                  "write spans on exit as Chrome trace-event JSON "
                  "(- = stdout)");
  std::string events_out;
  std::string alerts_out;
  flags.AddString("events_out", &events_out,
                  "write flight-recorder events on exit (.snapshot = "
                  "deterministic stable stream, anything else = JSONL; "
                  "- = stdout)");
  flags.AddString("alerts_out", &alerts_out,
                  "write the deterministic fired-alert timeline on exit "
                  "(- = stdout)");
  flags.Parse(argc, argv);

  if (!metrics_out.empty() || !trace_out.empty() || !events_out.empty() ||
      !alerts_out.empty()) {
    obs::SetEnabled(true);
  }
  if (!trace_out.empty()) obs::SetTracingEnabled(true);
  const ObsExporter exporter(metrics_out, trace_out, events_out, alerts_out);

  Rng rng(static_cast<uint64_t>(seed));
  const FixedPointCodec codec =
      FixedPointCodec::Integer(static_cast<int>(bits));

  if (task == "plan") {
    const CohortPlan plan = PlanForNrmse(
        codec, GeometricProbabilities(static_cast<int>(bits), 1.0), {},
        epsilon, mu, target_nrmse);
    std::printf("planning for NRMSE %.4f at expected mean %.1f "
                "(b=%lld, eps=%g):\n",
                target_nrmse, mu, static_cast<long long>(bits), epsilon);
    std::printf("  required clients: %lld\n",
                static_cast<long long>(plan.required_clients));
    std::printf("  predicted stderr: %.3f codewords\n",
                plan.predicted_stderr_codewords);
    return 0;
  }

  const Dataset data = MakeWorkload(workload, input, n, mu, sigma, rng);
  const Dataset clipped = data.Clipped(codec.low(), codec.high());
  std::printf("workload %s: n=%lld true_mean=%.3f true_var=%.3f "
              "(clipped to %d bits)\n\n",
              clipped.name().c_str(),
              static_cast<long long>(clipped.size()),
              clipped.truth().mean, clipped.truth().variance,
              codec.bits());

  if (task == "mean") {
    AdaptiveConfig config;
    config.bits = codec.bits();
    config.epsilon = epsilon;
    if (epsilon > 0) config.squash = SquashPolicy::Absolute(0.05);
    const std::vector<uint64_t> codewords =
        codec.EncodeAll(clipped.values());
    const ErrorStats stats = RunRepetitions(
        reps, static_cast<uint64_t>(seed) + 1, clipped.truth().mean,
        [&](Rng& run) {
          return codec.Decode(
              RunAdaptiveBitPushing(codewords, config, run)
                  .estimate_codeword);
        });
    std::printf("adaptive bit-pushing mean: %.4f  (nrmse %.4f over %lld "
                "reps)\n",
                stats.mean_estimate, stats.nrmse,
                static_cast<long long>(reps));
    return 0;
  }

  if (task == "variance") {
    VarianceConfig config;
    config.protocol.bits = codec.bits();
    config.protocol.epsilon = epsilon;
    const ErrorStats stats = RunRepetitions(
        reps, static_cast<uint64_t>(seed) + 1, clipped.truth().variance,
        [&](Rng& run) {
          return EstimateVariance(clipped.values(), codec, config, run)
              .variance;
        });
    std::printf("bit-pushing variance: %.4f  (nrmse %.4f over %lld "
                "reps)\n",
                stats.mean_estimate, stats.nrmse,
                static_cast<long long>(reps));
    return 0;
  }

  if (task == "histogram") {
    HistogramConfig config;
    config.edges = UniformEdges(codec.low(), codec.high(),
                                static_cast<int>(buckets));
    config.epsilon = epsilon;
    const HistogramResult result =
        EstimateHistogram(clipped.values(), config, rng);
    Table table({"bucket", "range", "fraction"});
    for (size_t b = 0; b + 1 < config.edges.size(); ++b) {
      char range[64];
      std::snprintf(range, sizeof(range), "[%.1f, %.1f)", config.edges[b],
                    config.edges[b + 1]);
      table.NewRow()
          .AddInt(static_cast<int64_t>(b))
          .AddCell(range)
          .AddDouble(result.fractions[b], 4);
    }
    table.Print();
    std::printf("\nmedian: %.3f   p90: %.3f\n",
                result.Quantile(config.edges, 0.5),
                result.Quantile(config.edges, 0.9));
    return 0;
  }

  if (task == "campaign") {
    // Crash-consistent campaign: two metrics over the same population under
    // one shared privacy meter, journaled to --state_dir. Per-tick results
    // and the meter summary go to stdout; recovery details go to stderr, so
    // the stdout of an uninterrupted run and of a crashed-then-restarted
    // run can be diffed byte for byte.
    if (state_dir.empty()) {
      std::fprintf(stderr, "--task=campaign requires --state_dir\n");
      return EXIT_FAILURE;
    }
    const std::vector<Client> population =
        MakePopulation(clipped.values(), ClientConfig{});
    std::vector<CampaignQuery> queries;
    for (int i = 0; i < 2; ++i) {
      CampaignQuery query;
      query.name = i == 0 ? "mean_a" : "mean_b";
      query.value_id = i;
      query.cadence_ticks = i == 0 ? 1 : 2;
      query.query.adaptive.bits = codec.bits();
      query.query.adaptive.epsilon = epsilon;
      queries.push_back(query);
    }
    MeterPolicy policy;
    policy.max_bits_per_value = 2;
    policy.max_bits_per_client = 3;

    if (shards > 1) {
      // Sharded topology (docs/SHARDING.md): N coordinator shards, each
      // with its own journal under <state_dir>/shard<i>, merged per tick.
      if (crash_after_records != 0) {
        std::fprintf(stderr,
                     "--crash_after_records only applies to the single-"
                     "coordinator path (--shards=1)\n");
        return EXIT_FAILURE;
      }
      ShardedCampaignOptions shard_options;
      shard_options.shards = shards;
      shard_options.seed = static_cast<uint64_t>(seed);
      shard_options.state_root = state_dir;
      shard_options.snapshot_every_ticks = snapshot_every;
      ShardedCampaignRunner sharded(queries, policy, shard_options);
      sharded.Open({&population, &population}, {codec, codec});
      Table table(
          {"tick", "query", "status", "estimate", "reports", "shards"});
      for (int64_t tick = 0; tick < ticks; ++tick) {
        MergedTickResult merged;
        std::string error;
        if (!sharded.RunTick(tick, &merged, &error)) {
          std::fprintf(stderr, "sharded tick failed: %s\n", error.c_str());
          return EXIT_FAILURE;
        }
        // Per-tick alert evaluation over the merged topology: the privacy
        // inputs are the sum of the disjoint shard-local ledgers, and the
        // delivery inputs come from the tick's merge result.
        obs::CampaignAlertInputs alert_inputs;
        alert_inputs.tick = tick;
        for (int64_t s = 0; s < shards; ++s) {
          const PrivacyMeter* meter = sharded.shard(s)->local_meter();
          if (meter == nullptr) continue;
          alert_inputs.bits_spent += meter->total_bits();
          alert_inputs.denied_charges += meter->denied_charges();
        }
        alert_inputs.bits_budget = static_cast<int64_t>(population.size()) *
                                   policy.max_bits_per_client;
        alert_inputs.shards_delivered = merged.shards_delivered;
        alert_inputs.shards_total = shards;
        alert_inputs.quorum_min = sharded.merge().quorum_min();
        obs::AlertEngine::Default().EvaluateCampaignTick(alert_inputs);
        for (const MergedQueryResult& result : merged.queries) {
          const char* status =
              result.status == MergedQueryResult::Status::kRan ? "ran"
              : result.status == MergedQueryResult::Status::kSkipped
                  ? "skipped"
                  : "failed_quorum";
          table.NewRow()
              .AddInt(result.tick)
              .AddCell(result.query_name)
              .AddCell(status)
              .AddDouble(result.estimate, 4)
              .AddInt(result.reports)
              .AddInt(result.shards_merged);
        }
      }
      table.Print();
      int64_t total_bits = 0;
      int64_t denied = 0;
      for (int64_t s = 0; s < shards; ++s) {
        const PrivacyMeter* meter = sharded.shard(s)->local_meter();
        if (meter == nullptr) continue;
        total_bits += meter->total_bits();
        denied += meter->denied_charges();
      }
      std::printf("\nmeter: total_bits=%lld denied_charges=%lld\n",
                  static_cast<long long>(total_bits),
                  static_cast<long long>(denied));
      std::printf("shard metrics:\n%s",
                  sharded.merge().merged_metrics().ToSnapshot().c_str());
      return 0;
    }

    DurableCampaignOptions options;
    options.state_dir = state_dir;
    options.seed = static_cast<uint64_t>(seed);
    options.snapshot_every_ticks = snapshot_every;
    options.crash_after_records = crash_after_records;
    DurableCampaignRunner runner(queries, policy, options);
    const std::vector<const std::vector<Client>*> populations = {
        &population, &population};
    std::string error;
    if (!runner.Open(populations, &error)) {
      std::fprintf(stderr, "recovery failed (refusing to run): %s\n",
                   error.c_str());
      return EXIT_FAILURE;
    }
    const RecoveryInfo& info = runner.recovery_info();
    if (info.recovered) {
      std::fprintf(stderr,
                   "recovered state: snapshot=%s torn_tail=%s "
                   "replayed_records=%lld completed_ticks=%lld\n",
                   info.had_snapshot ? "yes" : "no",
                   info.torn_tail ? "yes" : "no",
                   static_cast<long long>(info.replayed_records),
                   static_cast<long long>(info.completed_ticks));
    }

    const std::vector<FixedPointCodec> codecs = {codec, codec};
    Table table({"tick", "query", "status", "estimate", "reports"});
    for (int64_t tick = 0; tick < ticks; ++tick) {
      const std::vector<CampaignTickResult> tick_results =
          runner.RunTick(tick, codecs);
      // Per-tick alert evaluation. The meter inputs come from the
      // recovery-stable trajectory (meter_by_tick), not the live ledger,
      // so the kStable burn-rate rule's timeline is byte-identical across
      // a clean run and a crash-recovered rerun; the volatile rules
      // (journal growth, recovery divergence) consume live process state.
      obs::CampaignAlertInputs alert_inputs;
      alert_inputs.tick = tick;
      const auto& meter_samples = runner.meter_by_tick();
      if (static_cast<size_t>(tick) < meter_samples.size()) {
        const auto& sample = meter_samples[static_cast<size_t>(tick)];
        alert_inputs.bits_spent = sample.bits_spent;
        alert_inputs.denied_charges = sample.denied_charges;
      }
      alert_inputs.bits_budget = static_cast<int64_t>(population.size()) *
                                 policy.max_bits_per_client;
      alert_inputs.journal_records = runner.journal_records();
      alert_inputs.recovery_divergence = info.torn_tail;
      obs::AlertEngine::Default().EvaluateCampaignTick(alert_inputs);
      for (const CampaignTickResult& result : tick_results) {
        const char* status =
            result.status == CampaignTickResult::Status::kRan ? "ran"
            : result.status == CampaignTickResult::Status::kSkippedCohort
                ? "skipped_cohort"
                : "skipped_budget";
        table.NewRow()
            .AddInt(result.tick)
            .AddCell(result.query_name)
            .AddCell(status)
            .AddDouble(result.estimate, 4)
            .AddInt(result.reports);
      }
    }
    table.Print();
    std::printf("\nmeter: total_bits=%lld denied_charges=%lld\n",
                static_cast<long long>(runner.meter().total_bits()),
                static_cast<long long>(runner.meter().denied_charges()));
    std::printf("campaign: runs=%lld skips=%lld\n",
                static_cast<long long>(runner.campaign().runs()),
                static_cast<long long>(runner.campaign().skips()));
    return 0;
  }

  if (task == "diagnose") {
    // Pilot round + bit-histogram diagnostics (federated debugging).
    AdaptiveConfig pilot;
    pilot.bits = codec.bits();
    pilot.epsilon = epsilon;
    const AdaptiveResult result = RunAdaptiveBitPushing(
        codec.EncodeAll(clipped.values()), pilot, rng);
    BitHistogram pooled = result.round1.histogram;
    pooled.Merge(result.round2.histogram);
    const DistributionDiagnostics diagnostics =
        DiagnoseDistribution(pooled, epsilon, DebuggingConfig{});
    std::printf("highest used bit: %d of %d configured\n",
                diagnostics.highest_used_bit, codec.bits());
    std::printf("vacuous bit fraction: %.2f\n",
                diagnostics.vacuous_bit_fraction);
    std::printf("recommended bit width: %d\n",
                RecommendBitWidth(diagnostics, codec.bits()));
    if (diagnostics.findings.empty()) {
      std::printf("findings: none (healthy distribution)\n");
    } else {
      for (const std::string& finding : diagnostics.findings) {
        std::printf("finding: %s\n", finding.c_str());
      }
    }
    return 0;
  }

  if (task == "proportion") {
    const ProportionResult result = EstimateRangeProportion(
        clipped.values(), range_low, range_high, epsilon, rng);
    std::printf("fraction in [%.2f, %.2f]: %.4f (+/- %.4f), count %.0f "
                "of %lld\n",
                range_low, range_high, result.clamped_fraction,
                1.96 * result.stderr_fraction, result.count,
                static_cast<long long>(result.reports));
    return 0;
  }

  if (task == "quantiles") {
    RangeTreeConfig config;
    config.levels = static_cast<int>(bits);
    config.epsilon = epsilon;
    const RangeTreeResult tree = EstimateRangeTree(
        codec.EncodeAll(clipped.values()), config, rng);
    Table table({"q", "value"});
    for (const double q : {0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
      table.NewRow().AddDouble(q, 3).AddDouble(
          codec.Decode(tree.Quantile(q)), 5);
    }
    table.Print();
    return 0;
  }

  std::fprintf(stderr, "unknown --task=%s\n", task.c_str());
  return EXIT_FAILURE;
}

}  // namespace
}  // namespace bitpush

int main(int argc, char** argv) { return bitpush::Main(argc, argv); }
