// Differential oracles over random campaigns (ROADMAP item 2): the same
// seeded workload executed through two code paths that must agree
// bit-for-bit. These are the equivalence harnesses the SIMD rewrite
// (scalar-vs-SIMD) and the shard-out (sharded-vs-single) will plug into:
//
//   * live vs crash-recovered replay (durable runner + journal truncation),
//   * resilience machinery armed vs disabled on fault-free plans,
//   * secure aggregation vs plaintext aggregation,
//   * scalar kernel forced vs dispatched SIMD kernel (src/kernels/),
//   * wire encode -> decode -> re-encode byte stability.
//
// Each case embeds every seed it uses, so a printed BITPROP_SEED replays
// the whole differential run, including the crash point.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_pushing.h"
#include "core/fixed_point.h"
#include "core/privacy_meter.h"
#include "federated/campaign.h"
#include "kernels/kernels.h"
#include "federated/client.h"
#include "federated/report.h"
#include "federated/round.h"
#include "federated/shard/merge.h"
#include "federated/shard/runner.h"
#include "federated/wire.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "persist/journal.h"
#include "persist/recovery.h"
#include "prop/bitprop.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

using ::bitpush::prop::CheckOptions;
using ::bitpush::prop::CheckProperty;
using ::bitpush::prop::Domain;

// ---------------------------------------------------------------------------
// Random federated campaigns.

struct CampaignCase {
  uint64_t data_seed = 0;
  uint64_t protocol_seed = 0;
  uint64_t resilience_seed = 0;
  int64_t clients = 60;
  int64_t bits = 4;
  int64_t max_cohort = 40;
  double epsilon = 0.0;   // 0 = no DP noise
  double dropout = 0.0;
};

Domain<CampaignCase> CampaignDomain() {
  Domain<CampaignCase> domain;
  domain.generate = [](Rng& rng) {
    CampaignCase c;
    c.data_seed = rng.NextUint64();
    c.protocol_seed = rng.NextUint64();
    c.resilience_seed = rng.NextUint64();
    c.clients = 60 + static_cast<int64_t>(rng.NextBelow(200));
    c.bits = 3 + static_cast<int64_t>(rng.NextBelow(6));
    c.max_cohort = 40 + static_cast<int64_t>(rng.NextBelow(
                            static_cast<uint64_t>(c.clients) - 39));
    c.epsilon = rng.NextBernoulli(0.5) ? 0.0 : 0.5 + 1.5 * rng.NextDouble();
    c.dropout = rng.NextBernoulli(0.5) ? 0.0 : 0.25 * rng.NextDouble();
    return c;
  };
  domain.shrink = [](const CampaignCase& c) {
    std::vector<CampaignCase> out;
    if (c.dropout != 0.0) {
      CampaignCase smaller = c;
      smaller.dropout = 0.0;
      out.push_back(smaller);
    }
    if (c.epsilon != 0.0) {
      CampaignCase smaller = c;
      smaller.epsilon = 0.0;
      out.push_back(smaller);
    }
    if (c.bits > 3) {
      CampaignCase smaller = c;
      smaller.bits = 3;
      out.push_back(smaller);
    }
    if (c.clients > 60) {
      CampaignCase smaller = c;
      smaller.clients = std::max<int64_t>(60, c.clients / 2);
      smaller.max_cohort = std::min(smaller.max_cohort, smaller.clients);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const CampaignCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{data_seed=" << c.data_seed
        << " protocol_seed=" << c.protocol_seed
        << " resilience_seed=" << c.resilience_seed
        << " clients=" << c.clients << " bits=" << c.bits
        << " max_cohort=" << c.max_cohort << " epsilon=" << c.epsilon
        << " dropout=" << c.dropout << "}";
    return out.str();
  };
  return domain;
}

std::vector<Client> MakeCampaignPopulation(const CampaignCase& c) {
  Rng rng(c.data_seed);
  const double top = std::exp2(static_cast<double>(c.bits)) - 1.0;
  std::vector<double> values(static_cast<size_t>(c.clients));
  for (double& v : values) v = top * rng.NextDouble();
  ClientConfig config;
  config.dropout_probability = c.dropout;
  return MakePopulation(values, config);
}

FederatedQueryConfig MakeQueryConfig(const CampaignCase& c) {
  FederatedQueryConfig config;
  config.adaptive.bits = static_cast<int>(c.bits);
  config.adaptive.epsilon = c.epsilon;
  config.cohort.max_cohort_size = c.max_cohort;
  return config;
}

// The bit-for-bit comparison shared by the query-level oracles.
std::optional<std::string> CompareQueryResults(
    const FederatedQueryResult& a, const FederatedQueryResult& b,
    const std::string& label) {
  if (a.aborted != b.aborted) return label + ": aborted flags differ";
  if (a.estimate != b.estimate) {
    std::ostringstream out;
    out.precision(17);
    out << label << ": estimates differ (" << a.estimate << " vs "
        << b.estimate << ")";
    return out.str();
  }
  if (a.final_bit_means != b.final_bit_means) {
    return label + ": final bit means differ";
  }
  if (a.round2_probabilities != b.round2_probabilities) {
    return label + ": round-2 probabilities differ";
  }
  if (a.kept != b.kept) return label + ": squash masks differ";
  if (a.round1.responded != b.round1.responded ||
      a.round2.responded != b.round2.responded) {
    return label + ": responder counts differ";
  }
  if (a.used_static_fallback != b.used_static_fallback) {
    return label + ": static-fallback flags differ";
  }
  return std::nullopt;
}

// ---------------------------------------------------------------------------
// Oracle: secure aggregation vs plaintext aggregation.

TEST(PropDifferentialTest, SecureAggAndPlaintextAgreeBitForBit) {
  CheckOptions options;
  options.iterations = 120;
  CheckProperty<CampaignCase>(
      "a query aggregated under secure-agg masks equals the plaintext run",
      CampaignDomain(),
      [](const CampaignCase& c) -> std::optional<std::string> {
        const std::vector<Client> clients = MakeCampaignPopulation(c);
        const FixedPointCodec codec =
            FixedPointCodec::Integer(static_cast<int>(c.bits));
        FederatedQueryConfig config = MakeQueryConfig(c);
        Rng plain_rng(c.protocol_seed);
        const FederatedQueryResult plain =
            RunFederatedMeanQuery(clients, codec, config, nullptr, plain_rng);
        config.use_secure_aggregation = true;
        Rng secure_rng(c.protocol_seed);
        const FederatedQueryResult secure =
            RunFederatedMeanQuery(clients, codec, config, nullptr, secure_rng);
        return CompareQueryResults(plain, secure, "secure-agg vs plaintext");
      },
      options);
}

// ---------------------------------------------------------------------------
// Oracle: scalar kernel forced vs dispatched SIMD kernel.

TEST(PropDifferentialTest, ScalarAndDispatchedKernelsAgreeBitForBit) {
  CheckOptions options;
  options.iterations = 100;
  CheckProperty<CampaignCase>(
      "a query run with the scalar kernel forced equals the dispatched run "
      "down to meter bytes and wire frames, plaintext and secure-agg alike",
      CampaignDomain(),
      [](const CampaignCase& c) -> std::optional<std::string> {
        const std::vector<Client> clients = MakeCampaignPopulation(c);
        const FixedPointCodec codec =
            FixedPointCodec::Integer(static_cast<int>(c.bits));

        struct KernelRun {
          FederatedQueryResult result;
          std::vector<uint8_t> meter_bytes;
          std::vector<uint8_t> histogram_frames;
        };
        const auto run = [&](bool secure, bool force_scalar) {
          std::optional<kernels::ScopedForceScalar> force;
          if (force_scalar) force.emplace();
          KernelRun out;
          FederatedQueryConfig config = MakeQueryConfig(c);
          config.use_secure_aggregation = secure;
          MeterPolicy policy;
          policy.max_bits_per_value = 2;
          PrivacyMeter meter(policy);
          Rng rng(c.protocol_seed);
          out.result =
              RunFederatedMeanQuery(clients, codec, config, &meter, rng);
          meter.EncodeTo(&out.meter_bytes);
          EncodeBitHistogram(out.result.round1.histogram,
                             &out.histogram_frames);
          EncodeBitHistogram(out.result.round2.histogram,
                             &out.histogram_frames);
          return out;
        };

        for (const bool secure : {false, true}) {
          const std::string label = secure
                                        ? "scalar vs simd (secure-agg)"
                                        : "scalar vs simd (plaintext)";
          const KernelRun dispatched = run(secure, /*force_scalar=*/false);
          const KernelRun scalar = run(secure, /*force_scalar=*/true);
          if (auto diff = CompareQueryResults(dispatched.result,
                                              scalar.result, label)) {
            return diff;
          }
          if (dispatched.meter_bytes != scalar.meter_bytes) {
            return label + ": privacy meter ledgers differ";
          }
          if (dispatched.histogram_frames != scalar.histogram_frames) {
            return label + ": encoded histogram wire frames differ";
          }
        }
        return std::nullopt;
      },
      options);
}

// ---------------------------------------------------------------------------
// Oracle: resilience machinery armed vs disabled, on fault-free plans.

TEST(PropDifferentialTest, ResilienceIsInertWithoutFaults) {
  CheckOptions options;
  options.iterations = 120;
  CheckProperty<CampaignCase>(
      "with no fault plan, arming retries/hedging/breaker changes nothing",
      CampaignDomain(),
      [](const CampaignCase& c) -> std::optional<std::string> {
        const std::vector<Client> clients = MakeCampaignPopulation(c);
        const FixedPointCodec codec =
            FixedPointCodec::Integer(static_cast<int>(c.bits));
        const FederatedQueryConfig baseline = MakeQueryConfig(c);
        Rng baseline_rng(c.protocol_seed);
        const FederatedQueryResult off = RunFederatedMeanQuery(
            clients, codec, baseline, nullptr, baseline_rng);

        FederatedQueryConfig armed = baseline;
        armed.resilience.seed = c.resilience_seed;
        armed.resilience.retry.max_retries_per_client = 3;
        armed.resilience.hedge.enabled = true;
        armed.resilience.breaker.consecutive_failures_to_open = 2;
        Rng armed_rng(c.protocol_seed);
        const FederatedQueryResult on =
            RunFederatedMeanQuery(clients, codec, armed, nullptr, armed_rng);

        if (on.retry.RecoveredTotal() != 0) {
          return std::string(
              "resilience recovered clients on a fault-free plan");
        }
        return CompareQueryResults(off, on, "resilience on vs off");
      },
      options);
}

// ---------------------------------------------------------------------------
// Oracle: live campaign vs crash-recovered replay.

struct DurableCase {
  CampaignCase campaign;
  uint64_t runner_seed = 0;
  int64_t ticks = 1;
  double truncate_frac = 0.5;  // journal prefix kept at the crash point
};

Domain<DurableCase> DurableDomain() {
  Domain<DurableCase> domain;
  Domain<CampaignCase> inner = CampaignDomain();
  domain.generate = [inner](Rng& rng) {
    DurableCase c;
    c.campaign = inner.generate(rng);
    // Durable runs re-run the query every tick; keep populations modest.
    c.campaign.clients = 60 + static_cast<int64_t>(rng.NextBelow(80));
    c.campaign.max_cohort =
        std::min(c.campaign.max_cohort, c.campaign.clients);
    c.runner_seed = rng.NextUint64();
    c.ticks = 1 + static_cast<int64_t>(rng.NextBelow(2));
    c.truncate_frac = rng.NextDouble();
    return c;
  };
  domain.shrink = [inner](const DurableCase& c) {
    std::vector<DurableCase> out;
    if (c.ticks > 1) {
      DurableCase smaller = c;
      smaller.ticks = 1;
      out.push_back(smaller);
    }
    for (const CampaignCase& candidate : inner.shrink(c.campaign)) {
      DurableCase smaller = c;
      smaller.campaign = candidate;
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [inner](const DurableCase& c) {
    std::ostringstream out;
    out.precision(17);
    out << "{campaign=" << inner.Describe(c.campaign)
        << " runner_seed=" << c.runner_seed << " ticks=" << c.ticks
        << " truncate_frac=" << c.truncate_frac << "}";
    return out.str();
  };
  return domain;
}

TEST(PropDifferentialTest, LiveAndCrashRecoveredCampaignsAgreeBitForBit) {
  CheckOptions options;
  options.iterations = 100;
  options.max_iterations = 2000;  // three durable runs per case: bound long mode
  CheckProperty<DurableCase>(
      "a campaign crashed at a random journal prefix and recovered converges "
      "on the live run's history, meter ledger, and journal",
      DurableDomain(),
      [](const DurableCase& c) -> std::optional<std::string> {
        const std::vector<Client> clients =
            MakeCampaignPopulation(c.campaign);
        const std::vector<const std::vector<Client>*> populations = {
            &clients};
        const std::vector<FixedPointCodec> codecs = {
            FixedPointCodec::Integer(static_cast<int>(c.campaign.bits))};
        CampaignQuery query;
        query.name = "prop";
        query.value_id = 0;
        query.query = MakeQueryConfig(c.campaign);
        MeterPolicy policy;
        policy.max_bits_per_value = c.ticks + 1;

        struct RunResult {
          std::vector<CampaignTickResult> history;
          std::vector<uint8_t> meter;
          std::vector<JournalRecord> journal;
          bool recovered = false;
          std::string error;
        };
        auto run = [&](const std::string& dir) -> RunResult {
          RunResult result;
          DurableCampaignOptions runner_options;
          runner_options.state_dir = dir;
          runner_options.seed = c.runner_seed;
          runner_options.fsync = false;
          DurableCampaignRunner runner({query}, policy, runner_options);
          if (!runner.Open(populations, &result.error)) return result;
          for (int64_t tick = 0; tick < c.ticks; ++tick) {
            runner.RunTick(tick, codecs);
          }
          result.history = runner.campaign().history();
          runner.meter().EncodeTo(&result.meter);
          result.recovered = runner.recovery_info().recovered;
          JournalReadResult journal;
          if (!ReadJournal(dir + "/journal.wal", 0, &journal,
                           &result.error)) {
            return result;
          }
          result.journal = std::move(journal.records);
          return result;
        };

        const std::string base =
            ::testing::TempDir() + "/bitprop_differential";
        std::filesystem::remove_all(base);
        const RunResult live = run(base + "/live");
        if (!live.error.empty()) return "live run failed: " + live.error;

        // Crash the second run by cutting its journal to a random prefix,
        // then recover and finish.
        const RunResult interrupted = run(base + "/crash");
        if (!interrupted.error.empty()) {
          return "pre-crash run failed: " + interrupted.error;
        }
        const size_t keep = static_cast<size_t>(
            c.truncate_frac *
            static_cast<double>(interrupted.journal.size()));
        std::string error;
        if (!TruncateJournalToRecords(base + "/crash/journal.wal", keep,
                                      &error)) {
          return "journal truncation failed: " + error;
        }
        const RunResult recovered = run(base + "/crash");
        std::filesystem::remove_all(base);
        if (!recovered.error.empty()) {
          return "recovered run failed: " + recovered.error;
        }

        if (!(recovered.history == live.history)) {
          return std::string("recovered history differs from the live run");
        }
        if (recovered.meter != live.meter) {
          return std::string(
              "recovered meter ledger differs from the live run");
        }
        if (recovered.journal.size() != live.journal.size()) {
          return std::string("recovered journal length differs");
        }
        for (size_t i = 0; i < live.journal.size(); ++i) {
          if (recovered.journal[i].type != live.journal[i].type ||
              recovered.journal[i].payload != live.journal[i].payload) {
            std::ostringstream out;
            out << "recovered journal diverges at record " << i;
            return out.str();
          }
        }
        return std::nullopt;
      },
      options);
}

// ---------------------------------------------------------------------------
// Oracle: sharded vs single-coordinator execution (ROADMAP item 3). With
// no faults injected, an N-shard run through the full shard machinery
// (partitioning, per-shard campaigns and meters, wire frames, kernel
// merge) must equal the inline single-coordinator reference bit for bit:
// merged results, per-shard meter ledgers, shard metrics, and the
// deterministic observability snapshot.

TEST(PropDifferentialTest, ShardedAndSingleCoordinatorAgreeBitForBit) {
  CheckOptions options;
  options.iterations = 40;
  options.max_iterations = 400;  // 4 shard counts x 2 full runs per case
  CheckProperty<CampaignCase>(
      "a fault-free sharded campaign equals the single-coordinator "
      "reference across shard counts 1, 2, 4, and 8",
      CampaignDomain(),
      [](const CampaignCase& c) -> std::optional<std::string> {
        constexpr int64_t kTicks = 2;
        const std::vector<Client> clients = MakeCampaignPopulation(c);
        const std::vector<const std::vector<Client>*> populations = {
            &clients};
        const std::vector<FixedPointCodec> codecs = {
            FixedPointCodec::Integer(static_cast<int>(c.bits))};
        CampaignQuery query;
        query.name = "prop";
        query.value_id = 0;
        query.query = MakeQueryConfig(c);
        MeterPolicy policy;
        policy.max_bits_per_value = kTicks + 1;

        for (const int64_t shards : {1, 2, 4, 8}) {
          obs::Registry::Default().Reset();
          obs::SetEnabled(true);
          ShardedCampaignOptions sharded_options;
          sharded_options.shards = shards;
          sharded_options.seed = c.protocol_seed;
          ShardedCampaignRunner runner({query}, policy, sharded_options);
          runner.Open(populations, codecs);
          std::vector<MergedTickResult> sharded;
          for (int64_t tick = 0; tick < kTicks; ++tick) {
            MergedTickResult result;
            std::string error;
            if (!runner.RunTick(tick, &result, &error)) {
              obs::SetEnabled(false);
              return "sharded tick failed: " + error;
            }
            sharded.push_back(std::move(result));
          }
          const std::string sharded_obs =
              obs::DeterministicMetricsSnapshot();

          obs::Registry::Default().Reset();
          const ReferenceCampaignResult reference =
              RunSingleCoordinatorReference({query}, policy, shards,
                                            c.protocol_seed, populations,
                                            codecs, kTicks);
          const std::string reference_obs =
              obs::DeterministicMetricsSnapshot();
          obs::SetEnabled(false);
          obs::Registry::Default().Reset();

          const std::string label =
              "shards=" + std::to_string(shards) + ": ";
          if (!(sharded == reference.ticks)) {
            return label + "merged tick results differ from the reference";
          }
          for (int64_t s = 0; s < shards; ++s) {
            if (runner.shard_meter_bytes(s) !=
                reference.shard_meter_bytes[static_cast<size_t>(s)]) {
              return label + "shard " + std::to_string(s) +
                     " meter ledger differs";
            }
          }
          if (runner.merge().merged_metrics().ToSnapshot() !=
              reference.metrics.ToSnapshot()) {
            return label + "merged shard metrics differ";
          }
          if (!(runner.merge().merged_retry_stats() ==
                reference.retry_stats)) {
            return label + "merged retry stats differ";
          }
          if (sharded_obs != reference_obs) {
            return label + "deterministic metric snapshots differ";
          }
        }
        return std::nullopt;
      },
      options);
}

// ---------------------------------------------------------------------------
// Oracle: wire encode -> decode -> re-encode stability.

struct WireCase {
  std::vector<BitReport> reports;
};

Domain<WireCase> WireDomain() {
  Domain<WireCase> domain;
  domain.generate = [](Rng& rng) {
    WireCase c;
    c.reports.resize(rng.NextBelow(41));
    for (BitReport& report : c.reports) {
      report.client_id = static_cast<int64_t>(rng.NextBelow(1000000));
      report.bit_index = static_cast<int>(rng.NextBelow(53));
      report.bit = rng.NextBit();
    }
    return c;
  };
  domain.shrink = [](const WireCase& c) {
    std::vector<WireCase> out;
    if (!c.reports.empty()) {
      WireCase smaller = c;
      smaller.reports.resize(c.reports.size() / 2);
      out.push_back(smaller);
    }
    return out;
  };
  domain.describe = [](const WireCase& c) {
    std::ostringstream out;
    out << "{reports=" << c.reports.size() << "}";
    return out.str();
  };
  return domain;
}

std::vector<uint8_t> EncodeReports(const std::vector<BitReport>& reports) {
  std::vector<uint8_t> bytes;
  for (const BitReport& report : reports) EncodeBitReport(report, &bytes);
  return bytes;
}

TEST(PropDifferentialTest, WireReEncodeIsByteStable) {
  CheckProperty<WireCase>(
      "encode -> decode -> re-encode of a run of reports is the identity on "
      "bytes and fields",
      WireDomain(),
      [](const WireCase& c) -> std::optional<std::string> {
        const std::vector<uint8_t> report_bytes = EncodeReports(c.reports);
        std::vector<BitReport> decoded_reports;
        size_t offset = 0;
        while (offset < report_bytes.size()) {
          BitReport report;
          if (!DecodeBitReport(report_bytes, &offset, &report)) {
            return std::string("a valid report failed to decode");
          }
          decoded_reports.push_back(report);
        }
        if (decoded_reports.size() != c.reports.size()) {
          return std::string("report count changed across the wire");
        }
        for (size_t i = 0; i < c.reports.size(); ++i) {
          if (decoded_reports[i].client_id != c.reports[i].client_id ||
              decoded_reports[i].bit_index != c.reports[i].bit_index ||
              decoded_reports[i].bit != c.reports[i].bit) {
            std::ostringstream out;
            out << "report " << i << " changed across the wire";
            return out.str();
          }
        }
        if (EncodeReports(decoded_reports) != report_bytes) {
          return std::string("re-encoded report bytes differ");
        }
        return std::nullopt;
      });
}

}  // namespace
}  // namespace bitpush
