#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/bit_probabilities.h"
#include "data/census.h"
#include "federated/server.h"
#include "rng/rng.h"

namespace bitpush {
namespace {

std::vector<int64_t> AllOf(const std::vector<Client>& clients) {
  std::vector<int64_t> cohort(clients.size());
  std::iota(cohort.begin(), cohort.end(), int64_t{0});
  return cohort;
}

RoundConfig BasicConfig(int bits) {
  RoundConfig config;
  config.probabilities = GeometricProbabilities(bits, 0.5);
  return config;
}

TEST(ServerTest, RoundCollectsOneReportPerClient) {
  const std::vector<Client> clients =
      MakePopulation({1.0, 2.0, 3.0, 4.0}, ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(4));
  Rng rng(1);
  const RoundOutcome outcome = server.RunRound(
      clients, AllOf(clients), BasicConfig(4), nullptr, rng);
  EXPECT_EQ(outcome.contacted, 4);
  EXPECT_EQ(outcome.responded, 4);
  EXPECT_EQ(outcome.histogram.TotalReports(), 4);
  // Every contact answered: one request and one private bit each.
  const CommunicationStats wire =
      CommunicationStats::ForRound(outcome.contacted, outcome.responded);
  EXPECT_EQ(wire.requests_sent, 4);
  EXPECT_EQ(wire.private_bits, 4);
  EXPECT_EQ(wire.payload_bytes,
            4 * (kRequestPayloadBytes + kReportPayloadBytes));
  EXPECT_EQ(outcome.assigned_clients.size(), 4u);
  EXPECT_EQ(CountContacts(outcome.accepted), 4);
  EXPECT_EQ(CountContacts(outcome.crashed), 0);
}

TEST(ServerTest, IntendedCountsMatchQmcAllocation) {
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(1000, 5.0), ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(4));
  RoundConfig config;
  config.probabilities = {0.5, 0.25, 0.125, 0.125};
  Rng rng(2);
  const RoundOutcome outcome =
      server.RunRound(clients, AllOf(clients), config, nullptr, rng);
  EXPECT_EQ(outcome.intended_counts,
            (std::vector<int64_t>{500, 250, 125, 125}));
  EXPECT_EQ(outcome.histogram.totals, outcome.intended_counts);
}

TEST(ServerTest, EstimateMeanRecoversPopulationMean) {
  Rng data_rng(3);
  const Dataset ages = CensusAges(20000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(7));
  Rng rng(4);
  const RoundOutcome outcome = server.RunRound(
      clients, AllOf(clients), BasicConfig(7), nullptr, rng);
  const double estimate = server.EstimateMean(outcome.histogram, 0.0);
  EXPECT_NEAR(estimate, ages.truth().mean, 0.1 * ages.truth().mean);
}

TEST(ServerTest, EstimateMeanUnbiasesDp) {
  Rng data_rng(5);
  const Dataset ages = CensusAges(40000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(7));
  RoundConfig config = BasicConfig(7);
  config.epsilon = 2.0;
  Rng rng(6);
  const RoundOutcome outcome =
      server.RunRound(clients, AllOf(clients), config, nullptr, rng);
  const double estimate =
      server.EstimateMean(outcome.histogram, config.epsilon);
  EXPECT_NEAR(estimate, ages.truth().mean, 0.25 * ages.truth().mean);
}

TEST(ServerTest, DropoutReducesResponses) {
  ClientConfig client_config;
  client_config.dropout_probability = 0.4;
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(5000, 10.0), client_config);
  const AggregationServer server(FixedPointCodec::Integer(4));
  Rng rng(7);
  const RoundOutcome outcome = server.RunRound(
      clients, AllOf(clients), BasicConfig(4), nullptr, rng);
  EXPECT_NEAR(1.0 - static_cast<double>(outcome.responded) /
                        static_cast<double>(outcome.contacted),
              0.4, 0.03);
  EXPECT_LT(outcome.responded, outcome.contacted);
  // Estimates still work off the responders.
  EXPECT_NEAR(server.EstimateMean(outcome.histogram, 0.0), 10.0, 0.5);
}

TEST(ServerTest, SecureAggregationPreservesTallies) {
  Rng data_rng(8);
  const Dataset ages = CensusAges(5000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(7));

  RoundConfig plain = BasicConfig(7);
  RoundConfig secure = BasicConfig(7);
  secure.use_secure_aggregation = true;

  Rng rng_plain(9);
  Rng rng_secure(9);
  const RoundOutcome plain_outcome =
      server.RunRound(clients, AllOf(clients), plain, nullptr, rng_plain);
  const RoundOutcome secure_outcome = server.RunRound(
      clients, AllOf(clients), secure, nullptr, rng_secure);
  // Same seed, same assignment, no dropout: identical histograms even
  // though the secure path only ever sees masked sums.
  EXPECT_EQ(plain_outcome.histogram, secure_outcome.histogram);
}

TEST(ServerTest, CentralModeIgnoresClaimedIndex) {
  // A top-bit adversary under central randomness is tallied under its
  // assigned bit, so the top bit's mean is untouched when the adversary
  // was assigned elsewhere.
  ClientConfig adversarial;
  adversarial.adversary = AdversaryMode::kTopBitOne;
  std::vector<Client> clients =
      MakePopulation(std::vector<double>(1000, 0.0), ClientConfig{});
  // Make 10% adversarial.
  for (size_t i = 0; i < 100; ++i) {
    clients[i] = Client(static_cast<int64_t>(i), {0.0}, adversarial);
  }
  const AggregationServer server(FixedPointCodec::Integer(8));
  RoundConfig config;
  // Never assign the top bit.
  config.probabilities = std::vector<double>(8, 0.0);
  config.probabilities[0] = 1.0;
  config.central_randomness = true;
  Rng rng(10);
  const RoundOutcome outcome =
      server.RunRound(clients, AllOf(clients), config, nullptr, rng);
  EXPECT_EQ(outcome.histogram.totals[7], 0);  // defense holds
  EXPECT_EQ(outcome.histogram.ones[0], 100);  // adversaries flipped bit 0
}

TEST(ServerTest, LocalModeIsVulnerableToIndexHijack) {
  ClientConfig adversarial;
  adversarial.adversary = AdversaryMode::kTopBitOne;
  std::vector<Client> clients =
      MakePopulation(std::vector<double>(1000, 0.0), ClientConfig{});
  for (size_t i = 0; i < 100; ++i) {
    clients[i] = Client(static_cast<int64_t>(i), {0.0}, adversarial);
  }
  const AggregationServer server(FixedPointCodec::Integer(8));
  RoundConfig config;
  config.probabilities = std::vector<double>(8, 0.0);
  config.probabilities[0] = 1.0;
  config.central_randomness = false;
  Rng rng(11);
  const RoundOutcome outcome =
      server.RunRound(clients, AllOf(clients), config, nullptr, rng);
  // Adversaries claimed the top bit and the server believed them.
  EXPECT_EQ(outcome.histogram.totals[7], 100);
  EXPECT_EQ(outcome.histogram.ones[7], 100);
}

TEST(ServerTest, MalformedIndicesRejectedUnderLocalRandomness) {
  ClientConfig garbage;
  garbage.adversary = AdversaryMode::kGarbageIndex;
  std::vector<Client> clients =
      MakePopulation(std::vector<double>(100, 3.0), ClientConfig{});
  for (size_t i = 0; i < 20; ++i) {
    clients[i] = Client(static_cast<int64_t>(i), {3.0}, garbage);
  }
  const AggregationServer server(FixedPointCodec::Integer(4));
  RoundConfig config = BasicConfig(4);
  config.central_randomness = false;
  Rng rng(20);
  const RoundOutcome outcome =
      server.RunRound(clients, AllOf(clients), config, nullptr, rng);
  EXPECT_EQ(outcome.malformed_reports, 20);
  EXPECT_EQ(outcome.responded, 80);
  EXPECT_EQ(outcome.histogram.TotalReports(), 80);
}

TEST(ServerTest, GarbageIndexHarmlessUnderCentralRandomness) {
  ClientConfig garbage;
  garbage.adversary = AdversaryMode::kGarbageIndex;
  std::vector<Client> clients =
      MakePopulation(std::vector<double>(100, 3.0), ClientConfig{});
  for (size_t i = 0; i < 20; ++i) {
    clients[i] = Client(static_cast<int64_t>(i), {3.0}, garbage);
  }
  const AggregationServer server(FixedPointCodec::Integer(4));
  Rng rng(21);
  const RoundOutcome outcome = server.RunRound(
      clients, AllOf(clients), BasicConfig(4), nullptr, rng);
  // Central randomness re-pins the index; the report degrades to a bit
  // flip rather than a malformed message.
  EXPECT_EQ(outcome.malformed_reports, 0);
  EXPECT_EQ(outcome.histogram.TotalReports(), 100);
}

TEST(ServerTest, MeterDenialsShowUpAsNonResponse) {
  PrivacyMeter meter{MeterPolicy{}};
  const std::vector<Client> clients =
      MakePopulation({1.0, 2.0}, ClientConfig{});
  const AggregationServer server(FixedPointCodec::Integer(4));
  Rng rng(12);
  // First round consumes each client's single allowed bit for value 0.
  server.RunRound(clients, AllOf(clients), BasicConfig(4), &meter, rng);
  const RoundOutcome second = server.RunRound(
      clients, AllOf(clients), BasicConfig(4), &meter, rng);
  EXPECT_EQ(second.responded, 0);
  EXPECT_EQ(meter.denied_charges(), 2);
}

TEST(AdjustProbabilitiesTest, BoostsUnderReportedBits) {
  const std::vector<double> p = {0.5, 0.5};
  const std::vector<int64_t> intended = {100, 100};
  const std::vector<int64_t> realized = {100, 50};
  const std::vector<double> adjusted =
      AdjustProbabilitiesForDropout(p, intended, realized);
  EXPECT_GT(adjusted[1], adjusted[0]);
  EXPECT_NEAR(adjusted[0] + adjusted[1], 1.0, 1e-12);
  // Ratio 2 -> weights 0.5 vs 1.0 -> normalized {1/3, 2/3}.
  EXPECT_NEAR(adjusted[1], 2.0 / 3.0, 1e-12);
}

TEST(AdjustProbabilitiesTest, ClampsExtremeRatios) {
  const std::vector<double> adjusted = AdjustProbabilitiesForDropout(
      {0.5, 0.5}, {1000, 1000}, {1000, 1});
  // Ratio clamped to 2 -> {1/3, 2/3}, not {~0, ~1}.
  EXPECT_NEAR(adjusted[1], 2.0 / 3.0, 1e-12);
}

TEST(AdjustProbabilitiesTest, NoDropoutIsIdentity) {
  const std::vector<double> p = {0.25, 0.75};
  EXPECT_EQ(AdjustProbabilitiesForDropout(p, {25, 75}, {25, 75}), p);
}

TEST(AdjustProbabilitiesTest, UnsampledBitsKeepProbability) {
  const std::vector<double> p = {0.0, 1.0};
  const std::vector<double> adjusted =
      AdjustProbabilitiesForDropout(p, {0, 100}, {0, 80});
  EXPECT_DOUBLE_EQ(adjusted[0], 0.0);
  EXPECT_DOUBLE_EQ(adjusted[1], 1.0);
}

}  // namespace
}  // namespace bitpush
