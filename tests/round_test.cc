#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "data/census.h"
#include "federated/round.h"
#include "rng/rng.h"
#include "stats/repetition.h"

namespace bitpush {
namespace {

FederatedQueryConfig AgesQueryConfig() {
  FederatedQueryConfig config;
  config.adaptive.bits = 7;
  return config;
}

TEST(FederatedQueryTest, RecoversCensusMean) {
  Rng data_rng(1);
  const Dataset ages = CensusAges(20000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(2);
  const FederatedQueryResult result = RunFederatedMeanQuery(
      clients, codec, AgesQueryConfig(), nullptr, rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.estimate, ages.truth().mean, 0.1 * ages.truth().mean);
}

TEST(FederatedQueryTest, TwoRoundsSplitByDelta) {
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(900, 30.0), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(3);
  const FederatedQueryResult result = RunFederatedMeanQuery(
      clients, codec, AgesQueryConfig(), nullptr, rng);
  EXPECT_EQ(result.round1.contacted, 300);
  EXPECT_EQ(result.round2.contacted, 600);
  EXPECT_EQ(result.comm.requests_sent, 900);
  EXPECT_EQ(result.comm,
            CommunicationStats::ForRound(900, result.round1.responded +
                                                  result.round2.responded));
}

TEST(FederatedQueryTest, AbortsBelowMinimumCohort) {
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(50, 1.0), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config = AgesQueryConfig();
  config.cohort.min_cohort_size = 100;
  Rng rng(4);
  const FederatedQueryResult result =
      RunFederatedMeanQuery(clients, codec, config, nullptr, rng);
  EXPECT_TRUE(result.aborted);
  EXPECT_EQ(result.comm.requests_sent, 0);
}

TEST(FederatedQueryTest, SurvivesHeavyDropout) {
  // Section 4.3: "The algorithm succeeds even with a small subset of
  // devices responding."
  Rng data_rng(5);
  const Dataset ages = CensusAges(30000, data_rng);
  ClientConfig flaky;
  flaky.dropout_probability = 0.6;
  const std::vector<Client> clients = MakePopulation(ages.values(), flaky);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(6);
  const FederatedQueryResult result = RunFederatedMeanQuery(
      clients, codec, AgesQueryConfig(), nullptr, rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(1.0 - static_cast<double>(result.round1.responded) /
                        static_cast<double>(result.round1.contacted),
              0.6, 0.05);
  EXPECT_NEAR(result.estimate, ages.truth().mean, 0.15 * ages.truth().mean);
}

TEST(FederatedQueryTest, DropoutAutoAdjustmentRebalances) {
  Rng data_rng(7);
  const Dataset ages = CensusAges(20000, data_rng);
  ClientConfig flaky;
  flaky.dropout_probability = 0.5;
  const std::vector<Client> clients = MakePopulation(ages.values(), flaky);
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config = AgesQueryConfig();
  config.auto_adjust_dropout = true;
  Rng rng(8);
  const FederatedQueryResult result =
      RunFederatedMeanQuery(clients, codec, config, nullptr, rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.estimate, ages.truth().mean, 0.15 * ages.truth().mean);
  double total = 0.0;
  for (const double p : result.round2_probabilities) total += p;
  EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(FederatedQueryTest, MeterEnforcesOneBitPerClient) {
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(500, 20.0), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  PrivacyMeter meter{MeterPolicy{}};
  Rng rng(9);
  const FederatedQueryResult result = RunFederatedMeanQuery(
      clients, codec, AgesQueryConfig(), &meter, rng);
  EXPECT_FALSE(result.aborted);
  // Each client is in exactly one round, so exactly one bit each.
  EXPECT_EQ(meter.total_bits(), 500);
  EXPECT_EQ(meter.denied_charges(), 0);
  for (int64_t id = 0; id < 500; ++id) {
    EXPECT_LE(meter.ClientBits(id), 1);
  }
}

TEST(FederatedQueryTest, SecureAggregationPathMatchesAccuracy) {
  Rng data_rng(10);
  const Dataset ages = CensusAges(10000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  FederatedQueryConfig config = AgesQueryConfig();
  config.use_secure_aggregation = true;
  Rng rng(11);
  const FederatedQueryResult result =
      RunFederatedMeanQuery(clients, codec, config, nullptr, rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.estimate, ages.truth().mean, 0.1 * ages.truth().mean);
}

TEST(FederatedQueryTest, DpQueryWithSquashing) {
  Rng data_rng(12);
  const Dataset ages = CensusAges(50000, data_rng);
  const std::vector<Client> clients =
      MakePopulation(ages.values(), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(16);
  FederatedQueryConfig config;
  config.adaptive.bits = 16;
  config.adaptive.epsilon = 2.0;
  config.adaptive.squash = SquashPolicy::Absolute(0.05);
  Rng rng(13);
  const FederatedQueryResult result =
      RunFederatedMeanQuery(clients, codec, config, nullptr, rng);
  EXPECT_FALSE(result.aborted);
  EXPECT_NEAR(result.estimate, ages.truth().mean, 0.5 * ages.truth().mean);
  // The vacuous bits 8+ should be squashed out of the final estimate.
  int kept_high_bits = 0;
  for (size_t j = 8; j < result.kept.size(); ++j) {
    kept_high_bits += result.kept[j] ? 1 : 0;
  }
  EXPECT_LE(kept_high_bits, 2);
}

TEST(FederatedQueryTest, MultiValueClientsAggregateSampledValue) {
  // Clients hold several readings; kSampleOne draws one per query.
  Rng data_rng(14);
  std::vector<Client> clients;
  ClientConfig config;
  config.value_policy = ValuePolicy::kSampleOne;
  for (int64_t i = 0; i < 5000; ++i) {
    std::vector<double> readings;
    for (int k = 0; k < 5; ++k) {
      readings.push_back(30.0 + static_cast<double>(data_rng.NextBelow(10)));
    }
    clients.emplace_back(i, std::move(readings), config);
  }
  const FixedPointCodec codec = FixedPointCodec::Integer(7);
  Rng rng(15);
  const FederatedQueryResult result = RunFederatedMeanQuery(
      clients, codec, AgesQueryConfig(), nullptr, rng);
  EXPECT_NEAR(result.estimate, 34.5, 2.0);
}

TEST(FederatedQueryDeathTest, BitWidthMismatchAborts) {
  const std::vector<Client> clients =
      MakePopulation(std::vector<double>(10, 1.0), ClientConfig{});
  const FixedPointCodec codec = FixedPointCodec::Integer(8);
  FederatedQueryConfig config;
  config.adaptive.bits = 7;
  Rng rng(16);
  EXPECT_DEATH(RunFederatedMeanQuery(clients, codec, config, nullptr, rng),
               "BITPUSH_CHECK failed");
}

}  // namespace
}  // namespace bitpush
