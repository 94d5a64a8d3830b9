// Cross-module integration tests: end-to-end pipelines combining the
// protocol core, the LDP/DP substrates, and the federated machinery the
// way the benchmarks and a real deployment would.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/adaptive.h"
#include "core/bit_probabilities.h"
#include "data/census.h"
#include "data/synthetic.h"
#include "dp/bernoulli_noise.h"
#include "dp/sample_threshold.h"
#include "federated/round.h"
#include "federated/telemetry.h"
#include "ldp/dithering.h"
#include "rng/rng.h"
#include "stats/metrics.h"
#include "stats/repetition.h"
#include "stats/welford.h"

namespace bitpush {
namespace {

TEST(IntegrationTest, FunctionalCoreAndFederatedPipelineAgree) {
  // The flat-vector core and the client/server pipeline implement the same
  // protocol; with no dropout or noise their accuracy must match closely.
  Rng data_rng(1);
  const Dataset ages = CensusAges(10000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});

  AdaptiveConfig adaptive;
  adaptive.bits = 7;
  const ErrorStats core_stats =
      RunRepetitions(60, 2, ages.truth().mean, [&](Rng& rng) {
        return codec.Decode(
            RunAdaptiveBitPushing(codewords, adaptive, rng)
                .estimate_codeword);
      });
  FederatedQueryConfig query;
  query.adaptive = adaptive;
  const ErrorStats fed_stats =
      RunRepetitions(60, 2, ages.truth().mean, [&](Rng& rng) {
        return RunFederatedMeanQuery(clients, codec, query, nullptr, rng)
            .estimate;
      });
  EXPECT_LT(core_stats.nrmse, 0.05);
  EXPECT_LT(fed_stats.nrmse, 0.05);
  EXPECT_NEAR(fed_stats.nrmse / core_stats.nrmse, 1.0, 0.75);
}

TEST(IntegrationTest, CentralDpByThresholdingBitCounts) {
  // Deployment recipe of Section 4.3: enclave-side sample-and-threshold on
  // the reported bit counts gives central DP with negligible accuracy
  // loss at healthy cohort sizes.
  Rng data_rng(3);
  const Dataset ages = CensusAges(50000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());

  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(7, 0.5);
  const auto st_config = SampleThresholdForBudget(1.0, 1e-6, 0.5);

  const ErrorStats stats =
      RunRepetitions(40, 4, ages.truth().mean, [&](Rng& rng) {
        const BitPushingResult raw =
            RunBasicBitPushing(codewords, config, rng);
        // Apply sample-and-threshold to both ones and totals.
        const std::vector<double> ones = UnbiasSampledCounts(
            SampleAndThreshold(raw.histogram.one_counts(), st_config, rng),
            st_config.sampling_rate);
        const std::vector<double> totals = UnbiasSampledCounts(
            SampleAndThreshold(raw.histogram.totals(), st_config, rng),
            st_config.sampling_rate);
        std::vector<double> means(ones.size(), 0.0);
        for (size_t j = 0; j < means.size(); ++j) {
          if (totals[j] > 0) means[j] = ones[j] / totals[j];
        }
        return codec.Decode(RecombineBitMeans(means));
      });
  // "a negligible amount of noise compared to the non-thresholded sample".
  EXPECT_LT(stats.nrmse, 0.05);
}

TEST(IntegrationTest, DistributedBernoulliNoiseOnBitHistograms) {
  // Section 3.3's distributed-DP route: binomial noise on the per-bit
  // count histograms, debiased server-side.
  Rng data_rng(5);
  const Dataset ages = CensusAges(50000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());

  BitPushingConfig config;
  config.probabilities = GeometricProbabilities(7, 0.5);
  const int64_t noise_bits = NoiseBitsForBudget(1.0, 1e-6);

  const ErrorStats stats =
      RunRepetitions(40, 6, ages.truth().mean, [&](Rng& rng) {
        const BitPushingResult raw =
            RunBasicBitPushing(codewords, config, rng);
        const std::vector<double> noisy_ones = AddBinomialNoise(
            raw.histogram.one_counts(), noise_bits, rng);
        std::vector<double> means(noisy_ones.size(), 0.0);
        for (size_t j = 0; j < means.size(); ++j) {
          const int64_t total = raw.histogram.totals()[j];
          if (total > 0) {
            means[j] = noisy_ones[j] / static_cast<double>(total);
          }
        }
        return codec.Decode(RecombineBitMeans(means));
      });
  // Distributed noise costs far less than per-report LDP noise would.
  EXPECT_LT(stats.nrmse, 0.10);
}

TEST(IntegrationTest, PoisoningBiasLocalVsCentral) {
  // Section 5: 5% adversaries aiming at the top bit bias the local-
  // randomness estimate upward dramatically; central randomness contains
  // the damage.
  Rng data_rng(7);
  const Dataset ages = CensusAges(10000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  ClientConfig adversarial;
  adversarial.adversary = AdversaryMode::kTopBitOne;
  std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  for (size_t i = 0; i < clients.size() / 20; ++i) {
    clients[i] = Client(static_cast<int64_t>(i),
                        {ages.values()[i]}, adversarial);
  }

  const AggregationServer server(codec);
  std::vector<int64_t> cohort;
  for (size_t i = 0; i < clients.size(); ++i) {
    cohort.push_back(static_cast<int64_t>(i));
  }
  // Uniform allocation makes the leverage gap explicit: under central
  // randomness one poisoned report is worth E[2^j] = (2^b - 1)/b per
  // group slot, while under local randomness the adversary parks all its
  // weight on the 2^{b-1} bit. (Geometric allocations shrink the gap
  // because they already overweight high bits for everyone.)
  auto bias_with_mode = [&](bool central) {
    RoundConfig config;
    config.probabilities = UniformProbabilities(16);
    config.central_randomness = central;
    Welford acc;
    Rng rng(8);
    for (int rep = 0; rep < 20; ++rep) {
      const RoundOutcome outcome =
          server.RunRound(clients, cohort, config, nullptr, rng);
      acc.Add(server.EstimateMean(outcome.histogram, 0.0) -
              ages.truth().mean);
    }
    return acc.mean();
  };
  const double local_bias = bias_with_mode(false);
  const double central_bias = bias_with_mode(true);
  EXPECT_GT(local_bias, 3.0 * std::max(1.0, std::abs(central_bias)));
}

TEST(IntegrationTest, TelemetryClippingRecoversUsableMean) {
  // Section 4.3 end to end: crash counters with extreme outliers are
  // useless un-clipped; clipping to 8 bits gives a stable, meaningful
  // estimate of the typical behaviour.
  Rng data_rng(9);
  const Dataset raw("crashes",
                    GenerateMetric(MetricFamily::kCrashCount, 30000,
                                   data_rng));
  const Dataset clipped = raw.Clipped(0.0, 255.0);
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  const std::vector<uint64_t> codewords = codec.EncodeAll(clipped.values());
  AdaptiveConfig config;
  config.bits = 8;
  const ErrorStats stats =
      RunRepetitions(40, 10, clipped.truth().mean, [&](Rng& rng) {
        return codec.Decode(
            RunAdaptiveBitPushing(codewords, config, rng)
                .estimate_codeword);
      });
  EXPECT_LT(stats.nrmse, 0.15);
  // And the clipped mean is a sane "typical" value, unlike the raw mean.
  EXPECT_LT(clipped.truth().mean, 5.0);
}

TEST(IntegrationTest, UpperBoundMonitorFlagsDistributionShift) {
  // Two telemetry windows: stable latency, then a regression inflating
  // the tail. The b_max estimated from bit-pushing means shifts and the
  // monitor flags it.
  Rng rng(11);
  const FixedPointCodec codec = FixedPointCodec::Integer(20);
  AdaptiveConfig config;
  config.bits = 20;
  UpperBoundMonitor monitor(2);

  const Dataset before("latency",
                       GenerateMetric(MetricFamily::kLatencyMs, 20000, rng));
  const AdaptiveResult before_result = RunAdaptiveBitPushing(
      codec.EncodeAll(before.values()), config, rng);
  EXPECT_FALSE(monitor.ObserveWindow(
      EstimateHighestUsedBit(before_result.final_means, 0.01)));

  // Regression: latencies grow 30x.
  std::vector<double> degraded = before.values();
  for (double& v : degraded) v *= 30.0;
  const AdaptiveResult after_result = RunAdaptiveBitPushing(
      codec.EncodeAll(degraded), config, rng);
  EXPECT_TRUE(monitor.ObserveWindow(
      EstimateHighestUsedBit(after_result.final_means, 0.01)));
}

TEST(IntegrationTest, BitPushingBeatsDitheringWhenBoundIsLoose) {
  // The headline claim (Section 5): with a loose bound (16 bits for 7-bit
  // data), adaptive bit-pushing beats subtractive dithering by a large
  // factor.
  Rng data_rng(12);
  const Dataset ages = CensusAges(10000, data_rng);
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  const std::vector<uint64_t> codewords = codec.EncodeAll(ages.values());

  AdaptiveConfig adaptive;
  adaptive.bits = 16;
  const double adaptive_nrmse =
      RunRepetitions(60, 13, ages.truth().mean, [&](Rng& rng) {
        return codec.Decode(
            RunAdaptiveBitPushing(codewords, adaptive, rng)
                .estimate_codeword);
      }).nrmse;

  const SubtractiveDithering dithering(0.0, 0.0, 65535.0);
  const double dithering_nrmse =
      RunRepetitions(60, 13, ages.truth().mean, [&](Rng& rng) {
        return dithering.EstimateMean(ages.values(), rng);
      }).nrmse;

  EXPECT_LT(adaptive_nrmse, 0.2 * dithering_nrmse);
}

}  // namespace
}  // namespace bitpush
